//! The three workloads, each a closed loop over the public `hpf_core` API:
//! one thread issues an operation — one `Plan::step` — waits for it
//! to finish, then issues the next.
//!
//! Every timed operation is paired with a hand-written native reference of
//! the same shape ([`crate::native`]), timed right next to it in alternating
//! order, so the per-pair ratio cancels the host's speed at that moment.

use crate::native;
use crate::stats::{beyond, median, quantile};
use hpf_core::trace::SpanKind;
use hpf_core::{
    max_abs_diff, presets, Backend, CompileOptions, CoreError, Engine, ExecConfig, Kernel,
    MachineConfig, Plan,
};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["p9-seq-1024", "jacobi-ovl-1024", "jacobi8-ss8-1024"];

/// Blocks of a stepping run. Each block builds a fresh plan (one set-up
/// sample) and a fresh native state, then takes an equal share of the
/// timed window, so set-ups see every phase of the host's speed and the
/// run averages over that many memory layouts.
const BLOCKS: usize = 20;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations issued: timed steps, set-ups and output checks.
    pub attempted: u64,
    /// Operations that failed: output checks that found a mismatch.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// Bytes of every array the workload's kernels declare.
    pub working_set: u64,
    /// Median native reference time, ms.
    pub native_ms: f64,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// A timing summary: median and p90 with the sample count and how many
    /// samples lie beyond the p90.
    fn timing(&mut self, name: &str, ms: &[f64]) {
        let p90 = quantile(ms, 0.9);
        self.lines.push(format!(
            "{name}: p50 {:.4} ms, p90 {p90:.4} ms, n={}, {} beyond p90",
            median(ms),
            ms.len(),
            beyond(ms, p90)
        ));
    }

    /// One output check: a single operation that fails when `got` differs
    /// from `want` by more than `tol` anywhere.
    fn check(&mut self, what: &str, got: &[f64], want: &[f64], tol: f64) -> bool {
        self.attempted += 1;
        let diff = if got.len() == want.len() { max_abs_diff(got, want) } else { f64::INFINITY };
        let ok = diff <= tol;
        if !ok {
            self.failed += 1;
        }
        self.lines.push(format!(
            "check {what}: max |diff| {diff:.3e} (tol {tol:.0e}) {}",
            if ok { "ok" } else { "FAILED" }
        ));
        ok
    }

    /// A configuration check: the plan runs what the workload asked for.
    fn expect(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.lines.push(format!("check {what}: {}", if ok { "ok" } else { "FAILED" }));
    }
}

/// Command-line settings of one run.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Tolerance of the output checks, relative to the largest magnitude.
const REL_TOL: f64 = 1e-12;

fn tol(want: &[f64]) -> f64 {
    REL_TOL * want.iter().fold(1.0f64, |m, v| m.max(v.abs()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Time `f`, returning its result and wall milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

/// The native reference a stepping workload is paired with.
#[derive(Clone, Copy)]
enum NativeKind {
    Problem9,
    /// Message-passing Jacobi on `threads` row blocks.
    Jacobi {
        sweeps: usize,
        threads: usize,
    },
    /// Temporally tiled Jacobi on a `tiles × tiles` decomposition.
    JacobiTiled {
        sweeps: usize,
        tiles: usize,
    },
}

/// A stepping workload: one kernel, one plan configuration.
struct Stepping {
    name: &'static str,
    source: String,
    n: usize,
    grid: [usize; 2],
    cfg: ExecConfig,
    /// Input arrays, filled with [`native::input`] salted by position.
    inputs: &'static [&'static str],
    /// Arrays checked against the oracle and the native reference.
    outputs: &'static [&'static str],
    native: NativeKind,
}

fn stepping(name: &str) -> Option<Stepping> {
    let bytecode = ExecConfig::new().backend(Backend::Bytecode);
    Some(match name {
        "p9-seq-1024" => Stepping {
            name: "p9-seq-1024",
            source: presets::problem9(1024),
            n: 1024,
            grid: [2, 2],
            cfg: bytecode.engine(Engine::Sequential),
            inputs: &["U"],
            outputs: &["T"],
            native: NativeKind::Problem9,
        },
        "jacobi-ovl-1024" => Stepping {
            name: "jacobi-ovl-1024",
            source: presets::jacobi(1024, 1),
            n: 1024,
            grid: [2, 1],
            cfg: bytecode.engine(Engine::ThreadedOverlap),
            inputs: &["U"],
            outputs: &["U", "T"],
            native: NativeKind::Jacobi { sweeps: 1, threads: 2 },
        },
        "jacobi8-ss8-1024" => Stepping {
            name: "jacobi8-ss8-1024",
            source: presets::jacobi(1024, 8),
            n: 1024,
            grid: [2, 2],
            cfg: bytecode.engine(Engine::Sequential).superstep(8),
            inputs: &["U"],
            outputs: &["U", "T"],
            native: NativeKind::JacobiTiled { sweeps: 8, tiles: 2 },
        },
        _ => return None,
    })
}

/// Native state evolving in lockstep with a plan: one `step` per plan step.
enum NativeState {
    Problem9 {
        n: usize,
        u: Vec<f64>,
        t: Vec<f64>,
    },
    Tiled {
        n: usize,
        u: Vec<f64>,
        t: Vec<f64>,
        sweeps: usize,
        tiles: usize,
        buffers: (Vec<f64>, Vec<f64>),
    },
    Blocks {
        blocks: native::JacobiBlocks,
        sweeps: usize,
    },
}

impl NativeState {
    fn new(w: &Stepping, seed: u64) -> Self {
        let (n, u, t) = (w.n, native::filled(w.n, seed, 0), vec![0.0; w.n * w.n]);
        match w.native {
            NativeKind::Problem9 => NativeState::Problem9 { n, u, t },
            NativeKind::JacobiTiled { sweeps, tiles } => {
                NativeState::Tiled { n, u, t, sweeps, tiles, buffers: Default::default() }
            }
            NativeKind::Jacobi { sweeps, threads } => {
                NativeState::Blocks { blocks: native::JacobiBlocks::new(n, &u, threads), sweeps }
            }
        }
    }

    fn step(&mut self) {
        match self {
            NativeState::Problem9 { n, u, t } => native::problem9(*n, u, t),
            NativeState::Tiled { n, u, t, sweeps, tiles, buffers } => {
                native::jacobi_tiled(*n, u, t, *sweeps, *tiles, buffers)
            }
            NativeState::Blocks { blocks, sweeps } => blocks.step(*sweeps),
        }
    }

    /// The dense state of output `name` (`U`, else `T`).
    fn output(&self, name: &str) -> Vec<f64> {
        match self {
            NativeState::Problem9 { u, t, .. } | NativeState::Tiled { u, t, .. } => {
                if name == "U" {
                    u.clone()
                } else {
                    t.clone()
                }
            }
            NativeState::Blocks { blocks, .. } => blocks.gather(name != "U"),
        }
    }
}

/// Build a plan of `kernel` with the workload's seeded inputs.
fn build<'k>(
    kernel: &'k Kernel,
    grid: &[usize],
    cfg: ExecConfig,
    inputs: &[&str],
    seed: u64,
) -> Result<Plan<'k>, CoreError> {
    let mut planner = kernel.plan(MachineConfig::grid(grid.to_vec())).config(cfg);
    for (salt, name) in inputs.iter().enumerate() {
        planner = planner.init(name, move |p| native::input(seed, salt as u64, p));
    }
    planner.build()
}

/// The oracle's state after one run of the program on the seeded inputs.
fn oracle(kernel: &Kernel, inputs: &[&str], seed: u64) -> hpf_core::Reference {
    let mut runner = kernel.oracle();
    for (salt, name) in inputs.iter().enumerate() {
        runner = runner.init(name, move |p| native::input(seed, salt as u64, p));
    }
    runner.run_steps(1)
}

/// Check a freshly built plan's first step against the oracle, then
/// leave the plan one step in.
fn check_first_step(r: &mut Report, plan: &mut Plan, kernel: &Kernel, w: &Stepping, seed: u64) {
    let reference = oracle(kernel, w.inputs, seed);
    plan.step();
    for out in w.outputs {
        let want = &reference.array_named(out).data;
        let got = plan.gather(out).unwrap_or_default();
        r.check(&format!("{}: step 1 {out} vs oracle", w.name), &got, want, tol(want));
    }
}

/// Bytes of every declared array of `kernel`.
fn array_bytes(kernel: &Kernel) -> u64 {
    let syms = &kernel.checked.symbols;
    syms.array_ids().map(|id| syms.array(id).shape.0.iter().product::<usize>() as u64 * 8).sum()
}

/// Run one workload.
pub fn run(name: &str, s: &Settings) -> Result<Report, String> {
    let w = stepping(name).ok_or_else(|| {
        format!("unknown workload {name:?}; choose one of {}", WORKLOADS.join(", "))
    })?;
    let report = if s.trace { run_stepping_traced(&w, s) } else { run_stepping(&w, s) };
    report.map_err(|e| format!("{name}: {e}"))
}

/// Check that the plan runs the configuration the workload names.
fn check_config(r: &mut Report, plan: &Plan, w: &Stepping) {
    let name = w.name;
    r.expect(&format!("{name}: engine {:?}", w.cfg.engine), plan.engine() == w.cfg.engine);
    if w.cfg.engine == Engine::ThreadedOverlap {
        r.expect(&format!("{name}: overlap windows kept"), plan.overlap_windows_per_step() > 0);
    }
    if w.cfg.superstep > 1 {
        r.expect(
            &format!("{name}: superstep depth {} kept", w.cfg.superstep),
            plan.superstep_diags().is_empty() && plan.supersteps_per_step() > 0,
        );
    }
}

fn run_stepping(w: &Stepping, s: &Settings) -> Result<Report, CoreError> {
    let name = w.name;
    let mut r = Report::default();
    let mut kernels = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        kernels.push(timed(|| Kernel::compile(&w.source, CompileOptions::full())));
    }
    r.working_set = array_bytes(kernels[0].0.as_ref().map_err(Clone::clone)?);
    let (mut step, mut native_ms, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup, mut block_x) = (Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(s.seconds);
    let mut start = Instant::now();
    for (block, (kernel, compile_ms)) in kernels.iter().enumerate() {
        let kernel = kernel.as_ref().map_err(Clone::clone)?;
        let (plan, build_ms) = timed(|| build(kernel, &w.grid, w.cfg, w.inputs, s.seed));
        let mut plan = plan?;
        setup.push(compile_ms + build_ms);
        let mut nat = NativeState::new(w, s.seed);
        for _ in 0..2 {
            plan.step();
            nat.step();
        }
        if block == 0 {
            start = Instant::now();
        }
        let until = window.mul_f64((block + 1) as f64 / BLOCKS as f64);
        let first = ratio.len();
        while start.elapsed() < until {
            let i = step.len();
            let (a, b) = if i % 2 == 0 {
                let a = timed(|| plan.step()).1;
                (a, timed(|| nat.step()).1)
            } else {
                let b = timed(|| nat.step()).1;
                (timed(|| plan.step()).1, b)
            };
            step.push(a);
            native_ms.push(b);
            ratio.push(a / b);
        }
        for out in w.outputs {
            let got = plan.gather(out)?;
            let want = &nat.output(out);
            let what =
                format!("{name}: block {block} {out} vs native after {} steps", plan.steps());
            r.check(&what, &got, want, tol(want));
        }
        block_x.push(median(&ratio[first..]));
    }
    let kernel = kernels[0].0.as_ref().map_err(Clone::clone)?;
    let mut plan = build(kernel, &w.grid, w.cfg, w.inputs, s.seed)?;
    let plan_bytes = plan.stats().peak_bytes.iter().sum::<usize>() + plan.pooled_bytes();
    check_config(&mut r, &plan, w);
    check_first_step(&mut r, &mut plan, kernel, w, s.seed);
    r.attempted += step.len() as u64 + setup.len() as u64;
    r.native_ms = median(&native_ms);
    r.timing("plan step", &step);
    r.timing("native step", &native_ms);
    let block_x: Vec<String> = block_x.iter().map(|x| format!("{x:.3}")).collect();
    r.lines.push(format!("x_native per block: {}", block_x.join(" ")));
    // The fastest set-up, not the median: the host's page-fault cost moves
    // in phases longer than a run, and the median of one run's set-ups
    // lands in whichever phase dominated it (0.059 s in one set of runs,
    // 0.081 s in the next), while the fastest held steady.
    let fastest = setup.iter().copied().fold(f64::INFINITY, f64::min);
    r.lines.push(format!("set-up: fastest {fastest:.4} ms, median {:.4} ms", median(&setup)));
    r.metric("setup_s", fastest / 1e3, "s", setup.len());
    r.metric("x_native", median(&ratio), "ratio", ratio.len());
    r.metric("x_native_p90", quantile(&ratio, 0.9), "ratio", ratio.len());
    r.metric("plan_mib", plan_bytes as f64 / (1u64 << 20) as f64, "MiB", 1);
    Ok(r)
}

/// Per-layer timings of one set-up, split at the public calls.
#[derive(Default)]
struct SetupSplit {
    parse_ms: f64,
    passes_ms: f64,
    pass_us: [f64; hpf_core::passes::NUM_PASSES],
    lint_ms: f64,
    build_ms: f64,
    kernel_compile_ms: f64,
    schedule_build_ms: f64,
    kernels_compiled: f64,
    schedules_built: f64,
    overlap_shifts: f64,
}

/// One traced set-up, timed at each public layer boundary.
fn setup_split(w: &Stepping, seed: u64) -> Result<SetupSplit, CoreError> {
    let mut sp = SetupSplit::default();
    let (checked, parse_ms) = timed(|| hpf_core::frontend::compile_source(&w.source));
    sp.parse_ms = parse_ms;
    let checked = checked?;
    let (compiled, passes_ms) =
        timed(|| hpf_core::passes::compile(&checked, CompileOptions::full()));
    sp.passes_ms = passes_ms;
    let kernel = Kernel { checked, compiled };
    for (us, pt) in sp.pass_us.iter_mut().zip(&kernel.stats().pass_timings) {
        *us = pt.wall_ns as f64 / 1e3;
    }
    sp.overlap_shifts = kernel.stats().unioning.after as f64;
    sp.lint_ms = timed(|| kernel.lint()).1;
    let (plan, build_ms) = timed(|| build(&kernel, &w.grid, w.cfg.trace(true), w.inputs, seed));
    let mut plan = plan?;
    sp.build_ms = build_ms;
    let summary = plan.trace_summary();
    sp.kernel_compile_ms = summary.total_wall_ns(SpanKind::KernelCompile) as f64 / 1e6;
    sp.schedule_build_ms = summary.total_wall_ns(SpanKind::ScheduleBuild) as f64 / 1e6;
    let stats = plan.stats();
    sp.kernels_compiled = stats.kernels_compiled as f64;
    sp.schedules_built = stats.schedules_built as f64;
    drop(plan);
    Ok(sp)
}

/// Medians over set-up splits, as per-layer metrics.
fn report_setup(r: &mut Report, splits: &[SetupSplit]) {
    let n = splits.len();
    let med = |f: &dyn Fn(&SetupSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    r.metric("frontend.parse_ms", med(&|s| s.parse_ms), "ms", n);
    r.metric("passes.compile_ms", med(&|s| s.passes_ms), "ms", n);
    for (i, pass) in hpf_core::passes::PASS_NAMES.iter().enumerate() {
        r.metric(&format!("passes.{pass}_us"), med(&|s| s.pass_us[i]), "us", n);
    }
    r.metric("analysis.lint_ms", med(&|s| s.lint_ms), "ms", n);
    r.metric("codegen.kernel_compile_ms", med(&|s| s.kernel_compile_ms), "ms", n);
    r.metric("codegen.kernels_compiled", med(&|s| s.kernels_compiled), "count", n);
    r.metric("runtime.schedule_build_ms", med(&|s| s.schedule_build_ms), "ms", n);
    r.metric("runtime.schedules_built", med(&|s| s.schedules_built), "count", n);
    r.metric(
        "exec.build_other_ms",
        med(&|s| s.build_ms - s.kernel_compile_ms - s.schedule_build_ms),
        "ms",
        n,
    );
    r.metric("passes.overlap_shifts", med(&|s| s.overlap_shifts), "count", n);
}

/// Step-side per-layer totals gathered from traced plans.
#[derive(Default)]
struct StepLedger {
    steps: u64,
    /// Wall ns per span kind, summed over PE tracks.
    pe_wall: [u64; hpf_core::trace::span::NUM_KINDS],
    dropped: u64,
    counters: hpf_core::runtime::PeStats,
    hidden_ns: f64,
    redundant: u64,
    elided: u64,
    modeled_ms: f64,
    imbalance: Vec<f64>,
    unattributed_ns: Vec<f64>,
    pooled_bytes: u64,
    peak_bytes: u64,
}

impl StepLedger {
    /// Fold in the trace recorded since the last call.
    fn absorb_trace(&mut self, plan: &mut Plan) {
        let summary = plan.trace_summary();
        for t in summary.pe_tracks() {
            for (acc, v) in self.pe_wall.iter_mut().zip(&t.wall_ns) {
                *acc += v;
            }
        }
        self.dropped += summary.total_dropped();
    }

    /// Fold in a traced plan's counters over `steps` steps, given its
    /// stats and modeled time before them.
    fn absorb_counters(
        &mut self,
        plan: &Plan,
        before: &hpf_core::AggStats,
        modeled0: f64,
        steps: u64,
    ) {
        let after = plan.stats();
        self.steps += steps;
        self.counters.merge(&after.total().delta_since(&before.total()));
        self.hidden_ns +=
            after.hidden_comm_ns.iter().sum::<f64>() - before.hidden_comm_ns.iter().sum::<f64>();
        self.redundant += after.redundant_cells - before.redundant_cells;
        self.elided += plan.exchanges_elided_per_step() * steps;
        self.modeled_ms += plan.modeled_ms() - modeled0;
        self.pooled_bytes += plan.pooled_bytes() as u64;
        self.peak_bytes += after.max_peak_bytes() as u64;
        if let Some(m) = plan.metrics_snapshot() {
            for smp in m.series.samples() {
                self.imbalance.push(smp.imbalance);
                let busiest = smp.busy.iter().copied().fold(0.0, f64::max);
                self.unattributed_ns.push(smp.wall_ns as f64 * (1.0 - busiest.min(1.0)));
            }
        }
    }

    fn report(&self, r: &mut Report) {
        let per = |ns: f64| ns / 1e6 / self.steps.max(1) as f64;
        let wall = |k: SpanKind| self.pe_wall[k as usize] as f64;
        let compute = [
            SpanKind::KernelExec,
            SpanKind::Compute,
            SpanKind::Interior,
            SpanKind::Boundary,
            SpanKind::Superstep,
        ]
        .iter()
        .map(|&k| wall(k))
        .sum::<f64>();
        let c = &self.counters;
        let steps = self.steps.max(1) as f64;
        let n = self.steps as usize;
        r.metric("codegen.kernel_exec_ms_per_step", per(compute), "ms", n);
        r.metric("codegen.ns_per_pt", compute / (c.iters.max(1) as f64), "ns", n);
        r.metric("codegen.flops_per_step", c.flops as f64 / steps, "flop", n);
        r.metric("codegen.bytes_per_step", (c.loads + c.stores) as f64 * 8.0 / steps, "B", n);
        // Blocking engines record pack and unpack; the overlap engine records
        // them inside its post and drain spans. Folding each pair keeps both
        // metrics measured on every workload.
        let (post, drain) = (wall(SpanKind::CommPost), wall(SpanKind::CommDrain));
        r.metric("runtime.pack_ms_per_step", per(wall(SpanKind::Pack) + post), "ms", n);
        r.metric("runtime.unpack_ms_per_step", per(wall(SpanKind::Unpack) + drain), "ms", n);
        let pct = |k: SpanKind| 100.0 * wall(k) / compute.max(1.0);
        r.metric("exec.interior_pct", pct(SpanKind::Interior), "%", n);
        r.metric("exec.boundary_pct", pct(SpanKind::Boundary), "%", n);
        r.metric("exec.hidden_comm_ms_per_step", per(self.hidden_ns), "ms_sp2", n);
        r.metric("exec.load_imbalance", median(&self.imbalance), "ratio", self.imbalance.len());
        r.metric(
            "exec.step_unattributed_ms",
            median(&self.unattributed_ns) / 1e6,
            "ms",
            self.unattributed_ns.len(),
        );
        r.metric("exec.exchanges_elided_per_step", self.elided as f64 / steps, "count", n);
        r.metric("exec.redundant_pts_per_step", self.redundant as f64 / steps, "count", n);
        r.metric("runtime.msgs_per_step", c.msgs_sent as f64 / steps, "count", n);
        r.metric("runtime.comm_bytes_per_step", c.bytes_sent as f64 / steps, "B", n);
        r.metric("runtime.intra_bytes_per_step", c.intra_bytes as f64 / steps, "B", n);
        r.metric("runtime.wrap_bytes_per_step", c.wrap_bytes as f64 / steps, "B", n);
        r.metric("model.sp2_ms_per_step", self.modeled_ms / steps, "ms_sp2", n);
        r.metric("runtime.pooled_bytes", self.pooled_bytes as f64, "B", 1);
        r.metric("runtime.peak_bytes_per_pe", self.peak_bytes as f64, "B", 1);
        r.metric("trace.dropped_spans", self.dropped as f64, "count", n);
    }
}

/// Steps between trace drains: far below the ring capacity for every
/// workload, so no span is dropped.
const DRAIN_EVERY: usize = 16;

fn run_stepping_traced(w: &Stepping, s: &Settings) -> Result<Report, CoreError> {
    let name = w.name;
    let mut r = Report::default();
    let mut splits = Vec::new();
    for _ in 0..3 {
        splits.push(setup_split(w, s.seed)?);
    }
    let kernel = Kernel::compile(&w.source, CompileOptions::full())?;
    r.working_set = array_bytes(&kernel);
    let mut traced = build(&kernel, &w.grid, w.cfg.trace(true).metrics(true), w.inputs, s.seed)?;
    let mut plain = build(&kernel, &w.grid, w.cfg, w.inputs, s.seed)?;
    check_config(&mut r, &traced, w);
    check_first_step(&mut r, &mut traced, &kernel, w, s.seed);
    plain.step();
    let mut nat = NativeState::new(w, s.seed);
    nat.step();
    traced.trace_summary();

    let mut ledger = StepLedger::default();
    let (mut t_ms, mut u_ms, mut n_ms) = (Vec::new(), Vec::new(), Vec::new());
    let before = traced.stats();
    let modeled0 = traced.modeled_ms();
    let (window, start) = (Duration::from_secs_f64(s.seconds), Instant::now());
    while start.elapsed() < window || t_ms.len() < 4 {
        // Rotate which side goes first so none always runs on a cold cache.
        let order = t_ms.len() % 3;
        for k in 0..3 {
            match (order + k) % 3 {
                0 => t_ms.push(timed(|| traced.step()).1),
                1 => u_ms.push(timed(|| plain.step()).1),
                _ => n_ms.push(timed(|| nat.step()).1),
            }
        }
        if t_ms.len().is_multiple_of(DRAIN_EVERY) {
            ledger.absorb_trace(&mut traced);
        }
    }
    ledger.absorb_trace(&mut traced);
    ledger.absorb_counters(&traced, &before, modeled0, t_ms.len() as u64);
    r.attempted += (t_ms.len() + u_ms.len()) as u64;
    for out in w.outputs {
        let got = traced.gather(out)?;
        let want = &nat.output(out);
        r.check(&format!("{name}: traced final {out} vs native"), &got, want, tol(want));
    }
    r.native_ms = median(&n_ms);
    r.timing("traced plan step", &t_ms);
    r.timing("untraced plan step", &u_ms);
    r.timing("native step", &n_ms);
    report_setup(&mut r, &splits);
    ledger.report(&mut r);
    report_trace_tail(&mut r, &t_ms, &u_ms, &n_ms);
    Ok(r)
}

/// The validity metrics every traced run ends with, and the untraced
/// operation's wall-time tail.
fn report_trace_tail(r: &mut Report, traced: &[f64], plain: &[f64], native: &[f64]) {
    r.metric("wall.step_ms_p50", median(plain), "ms", plain.len());
    r.metric("wall.step_ms_p90", quantile(plain, 0.9), "ms", plain.len());
    r.metric("native.step_ms_p50", median(native), "ms", native.len());
    r.metric("trace.step_ms_p50", median(traced), "ms", traced.len());
    r.metric(
        "trace.overhead_pct",
        (median(traced) / median(plain) - 1.0) * 100.0,
        "%",
        traced.len(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small sequential-bytecode workload on 2×2 PEs reading `U`.
    fn small(source: String, n: usize, native: NativeKind) -> Stepping {
        Stepping {
            name: "small",
            source,
            n,
            grid: [2, 2],
            cfg: ExecConfig::new().backend(Backend::Bytecode),
            inputs: &["U"],
            outputs: &["T"],
            native,
        }
    }

    fn one_step(w: &Stepping, seed: u64) -> (hpf_core::AggStats, f64, Vec<f64>) {
        let kernel = Kernel::compile(&w.source, CompileOptions::full()).unwrap();
        let mut plan = build(&kernel, &w.grid, w.cfg, w.inputs, seed).unwrap();
        plan.step();
        (plan.stats(), plan.modeled_ms(), plan.gather("T").unwrap())
    }

    #[test]
    fn seeds_change_outputs_but_not_counters_or_modeled_time() {
        let w = small(presets::problem9(32), 32, NativeKind::Problem9);
        let (s1, m1, t1) = one_step(&w, 1);
        let (s2, m2, t2) = one_step(&w, 2);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        assert!(m1 > 0.0);
        assert_ne!(t1, t2);
    }

    #[test]
    fn a_corrupted_element_counts_as_one_failure() {
        let w = small(presets::problem9(32), 32, NativeKind::Problem9);
        let kernel = Kernel::compile(&w.source, CompileOptions::full()).unwrap();
        let mut plan = build(&kernel, &w.grid, w.cfg, w.inputs, 7).unwrap();
        let mut r = Report::default();
        check_first_step(&mut r, &mut plan, &kernel, &w, 7);
        assert_eq!((r.attempted, r.failed), (1, 0));
        let reference = oracle(&kernel, w.inputs, 7);
        let want = &reference.array_named("T").data;
        let mut got = plan.gather("T").unwrap();
        got[17] += 1e-6;
        assert!(!r.check("corrupted T", &got, want, tol(want)));
        assert_eq!((r.attempted, r.failed), (2, 1));
    }

    #[test]
    fn native_references_reproduce_the_oracle() {
        let n = 24;
        for w in [
            small(presets::problem9(n), n, NativeKind::Problem9),
            small(presets::jacobi(n, 3), n, NativeKind::Jacobi { sweeps: 3, threads: 2 }),
            small(presets::jacobi(n, 4), n, NativeKind::JacobiTiled { sweeps: 4, tiles: 2 }),
        ] {
            let kernel = Kernel::compile(&w.source, CompileOptions::full()).unwrap();
            let mut nat = NativeState::new(&w, 3);
            nat.step();
            let reference = oracle(&kernel, w.inputs, 3);
            assert_eq!(nat.output("T"), reference.array_named("T").data);
        }
    }
}
