//! `paper_suite`: the sixteen Table 1 programs as a batch.
//!
//! Set-up generates the datasets and compiles every program once with the
//! default schedule. Each pass then runs all sixteen on their full `args`
//! datasets, in a seeded order, through `Compiled::run_with_opts` on the
//! GTX 780 profile with the warp engine and `threads = nproc`. The
//! executor does nearly all of the work here, so executor inner-loop,
//! memory-bookkeeping and overlay-commit changes show; compiler and
//! daemon changes do not.
//!
//! Outputs are checked twice, outside every timing: each program's small
//! dataset against the reference interpreter (as `Benchmark::verify`
//! does), and each full-dataset output of every pass against
//! `reference/paper_suite_full.txt`, which the per-lane reference engine
//! (`SimEngine::Lane`) produced once (`--write-reference`). The
//! interpreter is too slow for the full datasets.

use crate::layers::{self, outputs_match, run_opts};
use crate::stats::{describe_ms, fmt_list, geomean, median, per_window, sorted};
use crate::tracer::{finish_trace, Tracer};
use crate::{peak_rss_mb, permutation_order, Ledger, Outcome, Settings, SETUP_REPEATS};
use futhark::{Compiled, Compiler, Device, RunOptions, Schedule, SimEngine};
use futhark_bench::{all_benchmarks, Benchmark};
use futhark_core::{ArrayVal, Buffer, ScalarType, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference/paper_suite_full.txt")
}

/// Set-up: dataset generation plus compiling all sixteen programs.
fn setup(ledger: &mut Ledger) -> Option<(Vec<Benchmark>, Vec<Compiled>)> {
    let benches = all_benchmarks();
    let mut compiled = Vec::with_capacity(benches.len());
    for b in &benches {
        ledger.attempted += 1;
        match Compiler::new().compile(&b.source) {
            Ok(c) => compiled.push(c),
            Err(e) => {
                ledger.fail("compile", format!("{}: {e}", b.name));
                return None;
            }
        }
    }
    Some((benches, compiled))
}

/// Runs set-up `SETUP_REPEATS` times; returns the last state and the
/// set-up times (s). The repeat's compile attempts are counted once.
fn timed_setup(ledger: &mut Ledger) -> Option<(Vec<Benchmark>, Vec<Compiled>, Vec<f64>)> {
    let mut times = Vec::new();
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        let mut scratch = Ledger::default();
        let t = Instant::now();
        let s = setup(if i == 0 { &mut *ledger } else { &mut scratch });
        times.push(t.elapsed().as_secs_f64());
        state = Some(s?);
    }
    let (b, c) = state?;
    Some((b, c, times))
}

/// Checks every program on its small dataset against the interpreter.
pub fn verify_small(
    ledger: &mut Ledger,
    benches: &[Benchmark],
    compiled: &[Compiled],
    threads: usize,
) {
    for (b, c) in benches.iter().zip(compiled) {
        ledger.attempted += 1;
        let want = match futhark::interpret(&b.source, &b.small_args) {
            Ok(v) => v,
            Err(e) => {
                ledger.fail("run", format!("{}: interpreter: {e}", b.name));
                continue;
            }
        };
        match c.run_with_opts(Device::Gtx780, &b.small_args, run_opts(threads)) {
            Ok((got, _)) if outputs_match(&got, &want) => {}
            Ok(_) => ledger.fail("wrong_output", format!("{}: small dataset", b.name)),
            Err(e) => ledger.fail("run", format!("{}: {e}", b.name)),
        }
    }
}

/// The committed full-dataset reference outputs, in benchmark order.
fn load_reference(ledger: &mut Ledger, benches: &[Benchmark]) -> Option<Vec<Vec<Value>>> {
    let text = match std::fs::read_to_string(reference_path()) {
        Ok(t) => t,
        Err(e) => {
            ledger.fail("wrong_output", format!("reference file unreadable: {e}"));
            return None;
        }
    };
    let mut by_name: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        match parse_reference_line(line) {
            Some((name, v)) => by_name.entry(name).or_default().push(v),
            None => {
                ledger.fail(
                    "wrong_output",
                    format!("reference line {} malformed", n + 1),
                );
                return None;
            }
        }
    }
    let mut out = Vec::new();
    for b in benches {
        match by_name.remove(b.name) {
            Some(v) => out.push(v),
            None => {
                ledger.fail("wrong_output", format!("{}: no reference outputs", b.name));
                return None;
            }
        }
    }
    Some(out)
}

/// One output per line: `name elem shape values...`; `shape` is `-` for
/// a scalar, else dimensions joined by `x`.
fn reference_line(name: &str, v: &Value) -> String {
    let (elem, shape, data) = match v {
        Value::Scalar(s) => (
            s.scalar_type(),
            "-".to_string(),
            Buffer::from_scalars(s.scalar_type(), [*s]),
        ),
        Value::Array(a) => (
            a.elem_type(),
            a.shape
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join("x"),
            a.data.clone(),
        ),
    };
    let vals: Vec<String> = match &data {
        Buffer::Bool(v) => v.iter().map(|&b| u8::from(b).to_string()).collect(),
        Buffer::I32(v) => v.iter().map(i32::to_string).collect(),
        Buffer::I64(v) => v.iter().map(i64::to_string).collect(),
        Buffer::F32(v) => v.iter().map(|x| format!("{x:?}")).collect(),
        Buffer::F64(v) => v.iter().map(|x| format!("{x:?}")).collect(),
    };
    format!("{name} {} {shape} {}", elem_name(elem), vals.join(" "))
}

fn elem_name(t: ScalarType) -> &'static str {
    match t {
        ScalarType::Bool => "bool",
        ScalarType::I32 => "i32",
        ScalarType::I64 => "i64",
        ScalarType::F32 => "f32",
        ScalarType::F64 => "f64",
    }
}

fn parse_reference_line(line: &str) -> Option<(String, Value)> {
    let mut it = line.split_ascii_whitespace();
    let name = it.next()?.to_string();
    let elem = it.next()?;
    let shape = it.next()?;
    let toks: Vec<&str> = it.collect();
    fn all<T: std::str::FromStr>(t: &[&str]) -> Option<Vec<T>> {
        t.iter().map(|s| s.parse().ok()).collect()
    }
    let data = match elem {
        "bool" => Buffer::Bool(all::<u8>(&toks)?.into_iter().map(|b| b != 0).collect()),
        "i32" => Buffer::I32(all(&toks)?),
        "i64" => Buffer::I64(all(&toks)?),
        "f32" => Buffer::F32(all(&toks)?),
        "f64" => Buffer::F64(all(&toks)?),
        _ => return None,
    };
    if shape == "-" {
        return (data.len() == 1).then(|| (name, Value::Scalar(data.get(0))));
    }
    let dims: Vec<usize> = shape
        .split('x')
        .map(|d| d.parse().ok())
        .collect::<Option<_>>()?;
    (dims.iter().product::<usize>() == data.len())
        .then(|| (name, Value::Array(ArrayVal::new(dims, data))))
}

/// `--write-reference`: regenerates the full-dataset reference outputs
/// with the per-lane reference engine.
pub fn write_reference() {
    let mut text = String::from(
        "# Full-dataset outputs of the sixteen paper programs (default schedule,\n\
         # GTX 780 profile), produced by the per-lane reference engine\n\
         # (SimEngine::Lane). Regenerate with `perfbench --write-reference`.\n\
         # One output per line: benchmark elem shape values...\n",
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    for b in all_benchmarks() {
        let c = Compiler::new()
            .compile(&b.source)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", b.name));
        let opts = RunOptions {
            threads,
            profile: false,
            engine: SimEngine::Lane,
        };
        let (vals, _) = c
            .run_with_opts(Device::Gtx780, &b.args, opts)
            .unwrap_or_else(|e| panic!("{}: lane run failed: {e}", b.name));
        for v in &vals {
            text.push_str(&reference_line(b.name, v));
            text.push('\n');
        }
        eprintln!("reference: {}", b.name);
    }
    std::fs::write(reference_path(), text).expect("reference file is writable");
}

/// Untraced `paper_suite`.
pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let Some((benches, compiled, setup_times)) = timed_setup(&mut ledger) else {
        out.ledger = ledger;
        return out;
    };
    verify_small(&mut ledger, &benches, &compiled, s.nproc);
    let Some(reference) = load_reference(&mut ledger, &benches) else {
        out.ledger = ledger;
        return out;
    };

    let mut order = permutation_order(s.seed, benches.len());
    let mut pass_s = Vec::new();
    let mut run_ms = Vec::new();
    let mut per_prog: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    let mut modelled: Vec<Option<f64>> = vec![None; benches.len()];
    let t0 = Instant::now();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() < s.seconds {
        let mut pass = 0.0;
        for i in (0..benches.len()).map(|_| order()) {
            let b = &benches[i];
            ledger.attempted += 1;
            let t = Instant::now();
            let r = compiled[i].run_with_opts(Device::Gtx780, &b.args, run_opts(s.nproc));
            let wall = t.elapsed().as_secs_f64();
            pass += wall;
            run_ms.push(wall * 1e3);
            per_prog[i].push(wall * 1e3);
            match r {
                Err(e) => ledger.fail("run", format!("{}: {e}", b.name)),
                Ok((vals, perf)) => {
                    if !outputs_match(&vals, &reference[i]) {
                        ledger.fail("wrong_output", format!("{}: full dataset", b.name));
                    }
                    match modelled[i] {
                        None => modelled[i] = Some(perf.total_us),
                        Some(us) if us.to_bits() != perf.total_us.to_bits() => ledger.fail(
                            "wrong_output",
                            format!("{}: modelled time changed between passes", b.name),
                        ),
                        Some(_) => {}
                    }
                }
            }
        }
        pass_s.push(pass);
    }
    let modelled: Vec<f64> = modelled.into_iter().flatten().collect();
    let n = benches.len();
    out.note(format!(
        "setup (datasets + 16 compiles) x{SETUP_REPEATS}: {}",
        fmt_list(&setup_times)
    ));
    out.note(format!("passes: {}", fmt_list(&pass_s)));
    out.note(describe_ms("per-program run wall", &sorted(run_ms.clone())));
    for (b, (w, us)) in benches.iter().zip(per_prog.iter().zip(&modelled)) {
        out.note(format!(
            "{:<14} median wall {:>9.3} ms  modelled {:>9.1} us",
            b.name,
            median(w),
            us
        ));
    }
    out.metric("setup_s", median(&setup_times), "s", setup_times.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("pass_s", median(&pass_s), "s", pass_s.len());
    out.metric(
        "modelled_geomean_us",
        geomean(&modelled),
        "sim_us",
        modelled.len(),
    );
    // Per-program latency: each pass's percentile over its sixteen runs,
    // then the median over the passes.
    out.metric(
        "p50_ms",
        per_pass_median(&run_ms, n, 0.5),
        "ms",
        run_ms.len(),
    );
    out.metric(
        "p99_ms",
        per_pass_median(&run_ms, n, 0.99),
        "ms",
        run_ms.len(),
    );
    let per_pass: Vec<f64> = pass_s.iter().map(|p| n as f64 / p).collect();
    out.metric("jobs_per_s", median(&per_pass), "jobs/s", run_ms.len());
    out.ledger = ledger;
    out
}

/// The median over passes of each pass's quantile `q` of its `n` run
/// walls; `walls` holds the runs pass after pass.
fn per_pass_median(walls: &[f64], n: usize, q: f64) -> f64 {
    median(&per_window(walls, n, q))
}

/// Traced `paper_suite`: compile passes, then the executor probe (one
/// traced pass at 1 thread, then traced and untraced passes at `nproc`
/// threads in turn, the untraced ones being the overhead baseline), then
/// the serve layers on the small datasets.
pub fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let tracer = std::sync::Arc::new(Tracer::new());
    let benches = all_benchmarks();
    let mut compiled = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        ledger.attempted += 1;
        match layers::compile_traced(
            &tracer,
            layers::paper_job(i),
            0,
            &b.source,
            &Schedule::default(),
        ) {
            Ok(c) => compiled.push(c),
            Err(e) => {
                ledger.fail("compile", format!("{}: {e}", b.name));
                out.ledger = ledger;
                return out;
            }
        }
    }
    let reports: Vec<_> = compiled.iter().filter_map(Compiled::report).collect();
    layers::compile_metrics(&mut out, &reports);
    let Some(reference) = load_reference(&mut ledger, &benches) else {
        out.ledger = ledger;
        return out;
    };

    let probe = layers::exec_probe(
        &mut out,
        &mut ledger,
        s,
        &tracer,
        &benches,
        &compiled,
        &|b| &b.args,
        &reference,
        s.seconds * 0.6,
        true,
    );
    layers::interp_metrics(&mut out, &probe.reports.iter().collect::<Vec<_>>());
    crate::serve::serve_probe(&mut out, &mut ledger, &tracer, &benches);

    let (pass, base_pass) = (median(&probe.pass_s), median(&probe.base_pass_s));
    // Runs are recorded in program order, pass after pass.
    let n = benches.len();
    let p50_of = |v: &[f64]| per_pass_median(v, n, 0.5);
    let (p50, base_p50) = (p50_of(&probe.run_ms), p50_of(&probe.base_run_ms));
    let residual: Vec<f64> = probe
        .pass_s
        .iter()
        .zip(&probe.runs_s)
        .map(|(p, r)| (p - r) / p)
        .collect();
    out.metric("trace.pass_s", pass, "s", probe.pass_s.len());
    out.metric("trace.p50_ms", p50, "ms", probe.run_ms.len());
    out.metric(
        "trace.residual_share",
        median(&residual),
        "ratio",
        residual.len(),
    );
    out.metric(
        "trace.overhead_pass_s",
        pass - base_pass,
        "s",
        probe.base_pass_s.len(),
    );
    out.metric(
        "trace.overhead_p50_ms",
        p50 - base_p50,
        "ms",
        probe.base_run_ms.len(),
    );
    let run_ms_sum: f64 = out
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("exec.run_ms."))
        .map(|m| m.value / 1e3)
        .sum();
    out.note(format!(
        "reconcile: traced pass {pass:.4} s = sum(exec.run_ms.*) {run_ms_sum:.4} s + residual \
         {:+.6} s (per pass, outside the run spans: {:.6} s); untraced pass {base_pass:.4} s, \
         tracing overhead {:+.6} s (pass medians); p50 per pass, median over passes: \
         traced {p50:.3} ms, untraced {base_p50:.3} ms",
        pass - run_ms_sum,
        pass - median(&probe.runs_s),
        pass - base_pass
    ));
    finish_trace(&mut out, &tracer, "paper_suite", s.seed);
    out.ledger = ledger;
    out
}
