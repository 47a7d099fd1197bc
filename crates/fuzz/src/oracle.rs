//! The differential oracle: run a program through the reference
//! interpreter and through the compiled simulator on every device profile
//! under every ablation configuration, and demand bit-identical results.
//!
//! Because every configuration must compute the same function, *any*
//! difference — a compile error in one configuration, a runtime fault, or
//! a single differing bit in an output — is a bug by construction, either
//! in an optimisation pass, in the code generator, or in the semantics the
//! interpreter and simulator are supposed to share.

use futhark::{interpret, Compiler, Device, RunOptions, Schedule, SimEngine};
use futhark_core::{Rng64, Value};

/// The two simulated devices, with stable labels for reports.
pub fn devices() -> [(Device, &'static str); 2] {
    [(Device::Gtx780, "gtx780"), (Device::W8100, "w8100")]
}

/// How a configuration disagreed with the reference interpreter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The pipeline rejected a program the interpreter executes.
    CompileError,
    /// The simulator faulted at runtime.
    RunError,
    /// The simulator produced different output values.
    Mismatch,
    /// Profiled execution perturbed the run: different output values or
    /// different aggregate cost counters than the unprofiled run.
    ProfilePerturbation,
    /// The bottleneck analysis broke an invariant: a launch whose time
    /// decomposition disagrees with its recorded time, limiters that
    /// differ between the profiled and unprofiled run of the same
    /// program, or an [`futhark::AnalysisReport`] that fails its own
    /// JSON round-trip. Analysis is derived data — any of these means it
    /// perturbed or misread the run.
    AnalysisPerturbation,
    /// The warp execution engine disagreed with the per-lane reference
    /// engine: different output values, a different error, or different
    /// aggregate cost counters. The two engines implement the same SIMT
    /// semantics and must be observationally indistinguishable.
    WarpExecution,
}

/// One observed disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The name of the failing configuration: its
    /// [`Schedule::ablation_matrix`] corner, or `sched:` and its label.
    pub config: String,
    /// The device label, when execution got that far.
    pub device: Option<String>,
    /// The failure class.
    pub kind: DivergenceKind,
    /// Human-readable detail (error text, or expected/actual values with
    /// the first differing flat index).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DivergenceKind::CompileError => "compile error",
            DivergenceKind::RunError => "run error",
            DivergenceKind::Mismatch => "mismatch",
            DivergenceKind::ProfilePerturbation => "profile perturbation",
            DivergenceKind::AnalysisPerturbation => "analysis perturbation",
            DivergenceKind::WarpExecution => "warp execution",
        };
        write!(f, "[{}", self.config)?;
        if let Some(d) = &self.device {
            write!(f, " on {d}")?;
        }
        write!(f, "] {kind}: {}", self.detail)
    }
}

/// The oracle's verdict on one program.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Every configuration and device matched the interpreter bit for bit.
    Clean,
    /// The reference interpreter itself failed — a generator bug or an
    /// interpreter bug; never expected, always reported.
    InterpError(String),
    /// At least one configuration disagreed (first disagreement reported).
    Diverged(Divergence),
}

impl Outcome {
    /// Whether the outcome is a failure of any class.
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Clean)
    }

    /// A short description of the failure, if any.
    pub fn describe(&self) -> Option<String> {
        match self {
            Outcome::Clean => None,
            Outcome::InterpError(e) => Some(format!("interpreter error: {e}")),
            Outcome::Diverged(d) => Some(d.to_string()),
        }
    }
}

fn truncated(v: &Value) -> String {
    let s = format!("{v:?}");
    if s.len() > 160 {
        format!("{}…", &s[..160])
    } else {
        s
    }
}

fn compare(reference: &[Value], got: &[Value]) -> Option<String> {
    if reference.len() != got.len() {
        return Some(format!(
            "result arity {} vs interpreter's {}",
            got.len(),
            reference.len()
        ));
    }
    for (i, (r, g)) in reference.iter().zip(got).enumerate() {
        if !r.bit_eq(g) {
            let at = r
                .first_mismatch(g)
                .map(|k| format!(" (first differing flat index {k})"))
                .unwrap_or_default();
            return Some(format!(
                "result {i}{at}: interpreter {} vs simulator {}",
                truncated(r),
                truncated(g)
            ));
        }
    }
    None
}

/// Compares a profiled re-run against the unprofiled run: the outputs
/// must be bit-identical and the aggregate [`futhark::PerfReport`]
/// counters (launches, transposes, whole-run kernel stats) unchanged —
/// profiling is an observer, never a participant.
fn check_profiled_run(
    compiled: &futhark::Compiled,
    device: Device,
    dlabel: &str,
    args: &[Value],
    (unprofiled, perf): (&[Value], &futhark::PerfReport),
    run: RunOptions,
    config: &str,
) -> Option<Divergence> {
    let diverge = |detail: String| {
        Some(Divergence {
            config: format!("{config}+profile"),
            device: Some(dlabel.to_string()),
            kind: DivergenceKind::ProfilePerturbation,
            detail,
        })
    };
    let profiled = RunOptions {
        profile: true,
        ..run
    };
    match compiled.run_with_opts(device, args, profiled) {
        Ok((got, pperf)) => {
            if let Some(detail) = compare(unprofiled, &got) {
                return diverge(detail);
            }
            if pperf.stats != perf.stats
                || pperf.launches != perf.launches
                || pperf.transposes != perf.transposes
            {
                return diverge(format!(
                    "aggregate counters changed under profiling: \
                     launches {} vs {}, transposes {} vs {}, stats {:?} vs {:?}",
                    perf.launches,
                    pperf.launches,
                    perf.transposes,
                    pperf.transposes,
                    perf.stats,
                    pperf.stats
                ));
            }
            if let Some(detail) = check_analysis(device, perf, &pperf) {
                return Some(Divergence {
                    config: format!("{config}+analyze"),
                    device: Some(dlabel.to_string()),
                    kind: DivergenceKind::AnalysisPerturbation,
                    detail,
                });
            }
            None
        }
        Err(e) => diverge(format!("profiled run failed: {e}")),
    }
}

/// Re-runs the program on the *other* group-execution engine (per-lane
/// when the session's engine is warp, and vice versa) and demands
/// bit-identical outputs — or the identical error — and identical
/// aggregate [`futhark::PerfReport`] counters. The warp engine is a pure
/// execution-strategy change; any observable difference is a bug in its
/// masking, fault ordering, or counter accounting.
fn check_warp_vs_lane(
    compiled: &futhark::Compiled,
    device: Device,
    dlabel: &str,
    args: &[Value],
    default_run: &Result<(Vec<Value>, futhark::PerfReport), String>,
    run: RunOptions,
    config: &str,
) -> Option<Divergence> {
    let (this, other) = match run.engine {
        SimEngine::Warp => ("warp", SimEngine::Lane),
        SimEngine::Lane => ("lane", SimEngine::Warp),
    };
    let diverge = |detail: String| {
        Some(Divergence {
            config: format!("{config}+engine"),
            device: Some(dlabel.to_string()),
            kind: DivergenceKind::WarpExecution,
            detail,
        })
    };
    let ropts = RunOptions {
        engine: other,
        ..run
    };
    let other_run = compiled
        .run_with_opts(device, args, ropts)
        .map_err(|e| e.to_string());
    match (default_run, &other_run) {
        (Ok((vals, perf)), Ok((ovals, operf))) => {
            if let Some(detail) = compare(vals, ovals) {
                return diverge(format!("{other:?} engine vs {this}: {detail}"));
            }
            if operf.stats != perf.stats
                || operf.launches != perf.launches
                || operf.transposes != perf.transposes
            {
                return diverge(format!(
                    "{other:?} engine changed aggregate counters vs {this}: \
                     launches {} vs {}, transposes {} vs {}, stats {:?} vs {:?}",
                    perf.launches,
                    operf.launches,
                    perf.transposes,
                    operf.transposes,
                    perf.stats,
                    operf.stats
                ));
            }
            None
        }
        (Err(e), Err(oe)) => {
            if e != oe {
                return diverge(format!(
                    "engines fault differently: {this} {e:?} vs {other:?} {oe:?}"
                ));
            }
            None
        }
        (Ok(_), Err(oe)) => diverge(format!("{other:?} engine faulted, {this} did not: {oe}")),
        (Err(e), Ok(_)) => diverge(format!("{this} engine faulted, {other:?} did not: {e}")),
    }
}

/// Checks that the bottleneck analysis layer is a pure observer of the
/// run it describes. Invariants, all exact (no tolerances):
///
/// 1. Every launch's recorded time decomposition reproduces its recorded
///    time bit-for-bit: `breakdown.total_us() == us`.
/// 2. The per-kernel limiters and summed decompositions of the profiled
///    and unprofiled runs are identical — enabling per-site profiling
///    must not move a single modelled nanosecond.
/// 3. The peak footprint and its owning site agree between the runs.
/// 4. The [`futhark::AnalysisReport`] survives a JSON round-trip.
fn check_analysis(
    device: Device,
    perf: &futhark::PerfReport,
    pperf: &futhark::PerfReport,
) -> Option<String> {
    use futhark::TimelineEvent;
    for (label, r) in [("unprofiled", perf), ("profiled", pperf)] {
        for e in &r.timeline {
            if let TimelineEvent::Launch(l) = e {
                match l.breakdown {
                    None => {
                        return Some(format!("{label} launch of {} has no breakdown", l.kernel))
                    }
                    Some(bd) if bd.total_us() != l.us => {
                        return Some(format!(
                            "{label} launch of {}: breakdown total {:?} != recorded {:?} us",
                            l.kernel,
                            bd.total_us(),
                            l.us
                        ))
                    }
                    Some(_) => {}
                }
            }
        }
    }
    let profile = device.profile();
    let a = futhark::analyze::analyze(perf, &profile);
    let b = futhark::analyze::analyze(pperf, &profile);
    if a.kernels.len() != b.kernels.len() {
        return Some(format!(
            "analysis sees {} kernels unprofiled vs {} profiled",
            a.kernels.len(),
            b.kernels.len()
        ));
    }
    for (name, ka) in &a.kernels {
        let Some(kb) = b.kernels.get(name) else {
            return Some(format!("kernel {name} analysed only in the unprofiled run"));
        };
        if ka.limiter != kb.limiter || ka.breakdown != kb.breakdown {
            return Some(format!(
                "kernel {name}: limiter/breakdown changed under profiling: \
                 {} {:?} vs {} {:?}",
                ka.limiter, ka.breakdown, kb.limiter, kb.breakdown
            ));
        }
    }
    if a.peak_bytes != b.peak_bytes || a.peak_site != b.peak_site {
        return Some(format!(
            "peak attribution changed under profiling: {} B at {:?} vs {} B at {:?}",
            a.peak_bytes, a.peak_site, b.peak_bytes, b.peak_site
        ));
    }
    for (label, rep) in [("unprofiled", &a), ("profiled", &b)] {
        let text = rep.to_json().render();
        let parsed = futhark::Json::parse(&text).ok();
        match parsed.as_ref().and_then(futhark::AnalysisReport::from_json) {
            Some(back) if back == *rep => {}
            _ => {
                return Some(format!(
                    "{label} analysis report failed its JSON round-trip"
                ))
            }
        }
    }
    None
}

/// The schedule-sampling stage: compiles the program under `n` random
/// valid schedules (drawn from a [`Rng64`] seeded by `seed`) and runs
/// each on both devices with `run`, demanding bit-identical agreement with the
/// reference interpreter. Schedules are valid by construction — a
/// declined choice site falls back to sequential code — so *any*
/// disagreement is a pipeline bug, exactly as for the ablation matrix.
pub fn check_schedules(
    src: &str,
    args: &[Value],
    reference: &[Value],
    run: RunOptions,
    seed: u64,
    n: u32,
) -> Option<Divergence> {
    let mut rng = Rng64::seed_from_u64(seed);
    for _ in 0..n {
        let sched = Schedule::sample(&mut rng);
        let config = format!("sched:{}", sched.label());
        let compiled = match Compiler::with_schedule(sched).compile(src) {
            Ok(c) => c,
            Err(e) => {
                return Some(Divergence {
                    config,
                    device: None,
                    kind: DivergenceKind::CompileError,
                    detail: e.to_string(),
                })
            }
        };
        for (device, dlabel) in devices() {
            match compiled.run_with_opts(device, args, run) {
                Ok((got, _)) => {
                    if let Some(detail) = compare(reference, &got) {
                        return Some(Divergence {
                            config: config.clone(),
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::Mismatch,
                            detail,
                        });
                    }
                }
                Err(e) => {
                    return Some(Divergence {
                        config: config.clone(),
                        device: Some(dlabel.to_string()),
                        kind: DivergenceKind::RunError,
                        detail: e.to_string(),
                    })
                }
            }
        }
    }
    None
}

/// Runs the full differential check plus the schedule-sampling stage.
pub fn check_source_with_schedules(
    src: &str,
    args: &[Value],
    run: RunOptions,
    sched_seed: u64,
    schedules: u32,
) -> Outcome {
    match check_source(src, args, run) {
        Outcome::Clean if schedules > 0 => {
            let reference = match interpret(src, args) {
                Ok(v) => v,
                Err(e) => return Outcome::InterpError(e.to_string()),
            };
            match check_schedules(src, args, &reference, run, sched_seed, schedules) {
                None => Outcome::Clean,
                Some(d) => Outcome::Diverged(d),
            }
        }
        other => other,
    }
}

/// Runs the full differential check on one program. `run` is the
/// session's execution options (host threads and engine); the warp-vs-lane
/// stage cross-checks against the other engine.
pub fn check_source(src: &str, args: &[Value], run: RunOptions) -> Outcome {
    let reference = match interpret(src, args) {
        Ok(v) => v,
        Err(e) => return Outcome::InterpError(e.to_string()),
    };
    for (config, sched) in Schedule::ablation_matrix() {
        let is_default = sched.is_default();
        let compiled = match Compiler::with_schedule(sched).compile(src) {
            Ok(c) => c,
            Err(e) => {
                return Outcome::Diverged(Divergence {
                    config,
                    device: None,
                    kind: DivergenceKind::CompileError,
                    detail: e.to_string(),
                })
            }
        };
        for (device, dlabel) in devices() {
            let result = compiled
                .run_with_opts(device, args, run)
                .map_err(|e| e.to_string());
            // The warp and per-lane engines must be observationally
            // indistinguishable: on the default configuration, re-run on
            // the other engine and demand identical outputs (or the
            // identical fault) and identical aggregate counters.
            if is_default {
                if let Some(d) =
                    check_warp_vs_lane(&compiled, device, dlabel, args, &result, run, &config)
                {
                    return Outcome::Diverged(d);
                }
            }
            match result {
                Ok((got, perf)) => {
                    if let Some(detail) = compare(&reference, &got) {
                        return Outcome::Diverged(Divergence {
                            config,
                            device: Some(dlabel.to_string()),
                            kind: DivergenceKind::Mismatch,
                            detail,
                        });
                    }
                    // Profiled execution must be a pure observer: on the
                    // default configuration, re-run with per-site
                    // profiling on and demand bit-identical outputs and
                    // identical aggregate cost counters.
                    if is_default {
                        if let Some(d) = check_profiled_run(
                            &compiled,
                            device,
                            dlabel,
                            args,
                            (&got, &perf),
                            run,
                            &config,
                        ) {
                            return Outcome::Diverged(d);
                        }
                    }
                }
                Err(e) => {
                    return Outcome::Diverged(Divergence {
                        config,
                        device: Some(dlabel.to_string()),
                        kind: DivergenceKind::RunError,
                        detail: e,
                    })
                }
            }
        }
    }
    Outcome::Clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use futhark_core::ArrayVal;

    const DOUBLE: &str = "fun main (n: i64) (xs: [n]i64): [n]i64 =\n  \
                          let r = map (\\x -> x * 2) xs\n  in r";

    fn args() -> Vec<Value> {
        vec![
            Value::i64(3),
            Value::Array(ArrayVal::from_i64s(vec![1, -2, 3])),
        ]
    }

    #[test]
    fn clean_program_is_clean() {
        assert!(matches!(
            check_source(DOUBLE, &args(), RunOptions::default()),
            Outcome::Clean
        ));
    }

    #[test]
    fn unparseable_program_reports_interp_error() {
        match check_source("fun main (): i64 = oops", &args(), RunOptions::default()) {
            Outcome::InterpError(_) => {}
            other => panic!("expected InterpError, got {other:?}"),
        }
    }
}
