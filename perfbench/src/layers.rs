//! Per-layer measurements shared by the traced runs: the compiler passes
//! (from `Compiler::with_trace()`'s `PassSpan`s) and the executor (wall
//! time around each `run_with_opts`, decode time, `PerfReport` counts).

use crate::stats::median;
use crate::tracer::Tracer;
use crate::{Ledger, Outcome, Settings};
use futhark::{
    CompileReport, Compiled, Compiler, Device, PerfReport, RunOptions, Schedule, SimEngine,
    TimelineEvent,
};
use futhark_bench::Benchmark;
use futhark_core::Value;
use futhark_gpu::DecodedKernel;
use std::time::Instant;

/// The pinned execution settings of every run the benchmark makes:
/// explicit thread count and engine, never the environment-derived
/// `RunOptions::default()`.
pub fn run_opts(threads: usize) -> RunOptions {
    RunOptions {
        threads,
        profile: false,
        engine: SimEngine::Warp,
    }
}

/// Trace job id of paper program `i` in the compile and executor probes;
/// request ids count up from 0 and stream candidates start at
/// [`STREAM_JOBS`], so the three never meet.
pub fn paper_job(i: usize) -> u64 {
    (1 << 40) + i as u64
}

/// Trace job id base of `serve_cold`'s stream candidates.
pub const STREAM_JOBS: u64 = 2 << 40;

/// Compile-pass span names, and the per-layer metric each one feeds.
/// Both simplify passes feed `opt.simplify_us`.
const PASSES: [(&str, &str); 9] = [
    ("parse", "frontend.parse_us"),
    ("check", "check.check_us"),
    ("inline", "opt.inline_us"),
    ("simplify", "opt.simplify_us"),
    ("fusion", "opt.fusion_us"),
    ("flatten", "opt.flatten_us"),
    ("simplify-post", "opt.simplify_us"),
    ("codegen", "gpu.codegen_us"),
    ("memplan", "gpu.memplan_us"),
];

const OPT_PASSES: [&str; 5] = ["inline", "simplify", "fusion", "flatten", "simplify-post"];

/// Compiles `source` with pass tracing inside a `compile` span of `job`,
/// laying the reported passes out as its children.
pub fn compile_traced(
    tracer: &Tracer,
    job: u64,
    lane: u64,
    source: &str,
    sched: &Schedule,
) -> Result<Compiled, futhark::Error> {
    let start = Instant::now();
    let res = tracer.time("compile", job, None, lane, |id| {
        let res = Compiler::with_schedule(sched.clone())
            .with_trace()
            .compile(source);
        if let Ok(c) = &res {
            let report = c.report().expect("traced compile attaches a report");
            let mut at = tracer.us(start);
            for p in &report.passes {
                tracer.record(&p.name, job, Some(id), lane, at, at + p.wall_us);
                at += p.wall_us;
            }
        }
        res
    });
    res
}

/// Per-job medians of the compile-pass times and IR counts.
pub fn compile_metrics(out: &mut Outcome, reports: &[&CompileReport]) {
    let n = reports.len();
    let mut names: Vec<&str> = Vec::new();
    for (_, m) in PASSES {
        if !names.contains(&m) {
            names.push(m);
        }
    }
    for metric in names {
        let per_job: Vec<f64> = reports
            .iter()
            .map(|r| {
                PASSES
                    .iter()
                    .filter(|p| p.1 == metric)
                    .filter_map(|p| r.pass(p.0))
                    .map(|s| s.wall_us)
                    .sum()
            })
            .collect();
        out.metric(metric, median(&per_job), "us", n);
    }
    let count = |f: &dyn Fn(&CompileReport) -> u64| -> f64 {
        median(&reports.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    out.metric(
        "frontend.stms",
        count(&|r| r.pass("parse").map_or(0, |p| p.after.statements)),
        "count",
        n,
    );
    out.metric(
        "opt.rewrites",
        count(&|r| {
            OPT_PASSES
                .iter()
                .filter_map(|p| r.pass(p))
                .flat_map(|s| s.counters.iter().map(|(_, v)| v))
                .sum()
        }),
        "count",
        n,
    );
    out.metric(
        "gpu.kernels",
        count(&|r| r.pass("codegen").map_or(0, |p| p.after.kernels)),
        "count",
        n,
    );
}

/// Median over `reps` repetitions of decoding every kernel of the plan —
/// the decode every run pays again today (µs).
pub fn decode_us(tracer: &Tracer, job: u64, lane: u64, c: &Compiled) -> f64 {
    const REPS: usize = 5;
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        tracer.time("exec.decode", job, None, lane, |_| {
            for k in &c.plan.kernels {
                let d = DecodedKernel::decode(k).expect("a compiled kernel decodes");
                std::hint::black_box(d);
            }
        });
        reps.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&reps)
}

/// Fallback metrics over a set of run reports.
pub fn interp_metrics(out: &mut Outcome, reports: &[&PerfReport]) {
    let fallbacks = reports
        .iter()
        .flat_map(|r| &r.timeline)
        .filter(|e| matches!(e, TimelineEvent::Fallback { .. }))
        .count();
    let fallback_us: f64 = reports.iter().map(|r| r.fallback_us).sum();
    let total_us: f64 = reports.iter().map(|r| r.total_us).sum();
    out.metric("interp.fallbacks", fallbacks as f64, "count", reports.len());
    out.metric(
        "interp.fallback_share",
        if total_us > 0.0 {
            fallback_us / total_us
        } else {
            0.0
        },
        "ratio",
        reports.len(),
    );
}

/// What one executor probe measured.
pub struct ExecProbe {
    /// Walls of the traced `nproc`-thread passes (s).
    pub pass_s: Vec<f64>,
    /// Sum of the run spans inside each of those passes (s).
    pub runs_s: Vec<f64>,
    /// Every per-program run wall of those passes (ms).
    pub run_ms: Vec<f64>,
    /// Untraced baseline passes, when asked for: pass walls (s) and
    /// per-program run walls (ms).
    pub base_pass_s: Vec<f64>,
    pub base_run_ms: Vec<f64>,
    pub reports: Vec<PerfReport>,
}

type RunResult = Result<(Vec<Value>, PerfReport), futhark::Error>;

/// One pass over every program at `threads` threads; with a tracer, the
/// pass and each run are spans. Returns the pass wall (s), the run walls
/// (s) and the results.
fn pass(
    tracer: Option<&Tracer>,
    threads: usize,
    benches: &[Benchmark],
    compiled: &[Compiled],
    args: &dyn Fn(&Benchmark) -> &[Value],
) -> (f64, Vec<f64>, Vec<RunResult>) {
    let mut walls = Vec::with_capacity(benches.len());
    let mut results = Vec::with_capacity(benches.len());
    let t_pass = Instant::now();
    let mut body = |parent: Option<u64>| {
        for (i, (b, c)) in benches.iter().zip(compiled).enumerate() {
            let run = || c.run_with_opts(Device::Gtx780, args(b), run_opts(threads));
            let t = Instant::now();
            let r = match tracer {
                Some(tr) => tr.time("exec.run", paper_job(i), parent, 0, |_| run()),
                None => run(),
            };
            walls.push(t.elapsed().as_secs_f64());
            results.push(r);
        }
    };
    match tracer {
        Some(tr) => tr.time(&format!("exec.pass.t{threads}"), 0, None, 0, |id| {
            body(Some(id))
        }),
        None => body(None),
    }
    (t_pass.elapsed().as_secs_f64(), walls, results)
}

/// Runs every program once at 1 thread, then passes at `nproc` threads
/// until `secs` have gone by (at least one), each run inside an
/// `exec.run` span. With `baseline`, an untraced pass follows each traced
/// one. Checks every output against `expected` and every `PerfReport`
/// against the program's first, and reports the executor metrics. `args`
/// picks each benchmark's dataset.
#[allow(clippy::too_many_arguments)]
pub fn exec_probe(
    out: &mut Outcome,
    ledger: &mut Ledger,
    s: &Settings,
    tracer: &Tracer,
    benches: &[Benchmark],
    compiled: &[Compiled],
    args: &dyn Fn(&Benchmark) -> &[Value],
    expected: &[Vec<Value>],
    secs: f64,
    baseline: bool,
) -> ExecProbe {
    let mut reports: Vec<Option<PerfReport>> = vec![None; benches.len()];
    let mut check = |ledger: &mut Ledger, threads: usize, results: Vec<RunResult>| {
        // Checks run after the pass, outside every span.
        for (i, r) in results.into_iter().enumerate() {
            ledger.attempted += 1;
            let name = benches[i].name;
            match r {
                Err(e) => ledger.fail("run", format!("{name}: {e}")),
                Ok((vals, perf)) => {
                    if !outputs_match(&vals, &expected[i]) {
                        ledger.fail("wrong_output", format!("{name} at {threads} threads"));
                    }
                    match &reports[i] {
                        None => reports[i] = Some(perf),
                        Some(p1) if *p1 != perf => ledger.fail(
                            "wrong_output",
                            format!("{name}: PerfReport differs between 1 and {threads} threads"),
                        ),
                        Some(_) => {}
                    }
                }
            }
        }
    };
    let (_, walls1, results) = pass(Some(tracer), 1, benches, compiled, args);
    check(ledger, 1, results);
    let mut probe = ExecProbe {
        pass_s: Vec::new(),
        runs_s: Vec::new(),
        run_ms: Vec::new(),
        base_pass_s: Vec::new(),
        base_run_ms: Vec::new(),
        reports: Vec::new(),
    };
    let mut per_prog: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    let t0 = Instant::now();
    while probe.pass_s.is_empty() || t0.elapsed().as_secs_f64() < secs {
        let (wall, walls, results) = pass(Some(tracer), s.nproc, benches, compiled, args);
        check(ledger, s.nproc, results);
        probe.pass_s.push(wall);
        probe.runs_s.push(walls.iter().sum());
        for (i, w) in walls.iter().enumerate() {
            per_prog[i].push(w * 1e3);
            probe.run_ms.push(w * 1e3);
        }
        if baseline {
            let (wall, walls, results) = pass(None, s.nproc, benches, compiled, args);
            check(ledger, s.nproc, results);
            probe.base_pass_s.push(wall);
            probe.base_run_ms.extend(walls.iter().map(|w| w * 1e3));
        }
    }
    probe.reports = reports.into_iter().flatten().collect();
    let reports = &probe.reports;
    let n = benches.len();
    let run_ms: Vec<f64> = per_prog.iter().map(|w| median(w)).collect();
    for (b, ms) in benches.iter().zip(&run_ms) {
        out.metric(
            &format!("exec.run_ms.{}", b.name),
            *ms,
            "ms",
            probe.pass_s.len(),
        );
    }
    for ((b, ms), w1) in benches.iter().zip(&run_ms).zip(&walls1) {
        out.metric(
            &format!("exec.par_speedup.{}", b.name),
            w1 * 1e3 / ms,
            "ratio",
            probe.pass_s.len() + 1,
        );
    }
    let instrs: u64 = reports.iter().map(|r| r.stats.warp_instructions).sum();
    out.metric(
        "exec.ns_per_warp_instr",
        run_ms.iter().sum::<f64>() * 1e6 / instrs.max(1) as f64,
        "ns",
        n,
    );
    let hits: u64 = reports.iter().map(|r| r.uniform_hits).sum();
    let misses: u64 = reports.iter().map(|r| r.uniform_misses).sum();
    out.metric(
        "exec.uniform_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        n,
    );
    let sum = |f: fn(&PerfReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    out.metric("exec.launches", sum(|r| r.launches), "count", n);
    out.metric("exec.transposes", sum(|r| r.transposes), "count", n);
    out.metric(
        "exec.warp_instructions",
        sum(|r| r.stats.warp_instructions),
        "count",
        n,
    );
    let decode: Vec<f64> = compiled
        .iter()
        .enumerate()
        .map(|(i, c)| decode_us(tracer, paper_job(i), 0, c))
        .collect();
    out.metric("exec.decode_us", median(&decode), "us", n);
    out.metric(
        "exec.sim_peak_bytes",
        reports.iter().map(|r| r.mem.peak_bytes).max().unwrap_or(0) as f64,
        "bytes",
        n,
    );
    let allocs = sum(|r| r.mem.allocs);
    out.metric(
        "exec.mem_reuse_rate",
        sum(|r| r.mem.reuses) / allocs.max(1.0),
        "ratio",
        n,
    );
    out.note(format!(
        "exec probe: {} traced nproc passes, median pass {:.4} s, median sum of exec.run {:.4} s",
        probe.pass_s.len(),
        median(&probe.pass_s),
        median(&probe.runs_s),
    ));
    probe
}

/// Output comparison with `Benchmark::verify`'s tolerance.
pub fn outputs_match(got: &[Value], want: &[Value]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(a, b)| a.approx_eq(b, 1e-3))
}
