//! `serve_cold`: a closed loop of `nproc` clients into an in-process
//! daemon behind `serve_lines`. Every request is a (program, schedule)
//! pair the daemon has not seen: seeded fuzz-generator programs
//! (prefiltered to ones that compile and run) alternate with the paper
//! programs, each under a seeded `Schedule::sample` schedule, on small
//! inputs. Compilation is most of a job, and the artifact cache fills and
//! then evicts at its default capacity.

use crate::layers::{self, run_opts};
use crate::serve::{
    closed_loop, e2e_metrics, latencies, paper_probes, request_body, residual_share, serve_metrics,
    small_references, throughput, timed_setups, traced_e2e, Checker, Sent, Server, Sink, DEVICES,
};
use crate::stats::{describe_ms, median, sorted};
use crate::tracer::{finish_trace, Tracer};
use crate::{permutation_order, Ledger, Outcome, Settings};
use futhark::{Compiler, Device, DeviceProfile, Schedule};
use futhark_bench::{all_benchmarks, Benchmark};
use futhark_core::rng::Rng64;
use futhark_core::Value;
use futhark_serve::cache::artifact_key_sched;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// `serve_cold`'s set-up is a bare daemon start (until its front-end
/// answers), far shorter, so it is repeated more often for a steady
/// median.
const SETUP_REPEATS_COLD: usize = 21;

/// The `serve_cold` job stream for one seed, and what preparing it
/// measured.
struct ColdPool {
    /// Programs (source and arguments): the sixteen paper programs first,
    /// then the fuzz programs.
    programs: Vec<(String, Vec<Value>)>,
    /// Expected outputs of each program.
    expected: Vec<Vec<Value>>,
    /// (program index, schedule index), in stream order. Request bodies
    /// are rendered when sent, which keeps the stream's memory small
    /// beside the daemon's.
    jobs: Vec<(usize, u64)>,
    /// Fuzz programs that did not compile or run (skipped).
    skipped: usize,
    /// Traced runs only: compile reports, run reports and decode times
    /// of the jobs.
    compile: Vec<futhark::CompileReport>,
    runs: Vec<futhark::PerfReport>,
    decode_us: Vec<f64>,
}

/// Salts separating the seed's streams.
const FUZZ_SALT: u64 = 0xf022;
const SCHED_SALT: u64 = 0x5c4e;
/// Sampled schedules each fuzz program is sent under. Every pair is new
/// to the daemon, while the program's prefilter and interpreter outputs
/// (which no schedule changes) are paid once.
const SCHEDULES_PER_FUZZ: usize = 4;

/// Jobs whose compile and run layers a traced run records (their per-job
/// medians need no more).
const TRACED_JOBS: usize = 3000;

/// Sampled schedule `k` of the seed's stream.
fn schedule(seed: u64, k: u64) -> Schedule {
    Schedule::sample(&mut Rng64::seed_from_u64(futhark_fuzz::case_seed(
        seed ^ SCHED_SALT,
        k,
    )))
}

impl ColdPool {
    /// The request body of job `(program, schedule index)`.
    fn body(&self, seed: u64, &(p, k): &(usize, u64)) -> String {
        let (source, args) = &self.programs[p];
        request_body(source, args, Some(&schedule(seed, k)))
    }
}

/// A prefiltered fuzz program.
struct FuzzProgram {
    source: String,
    args: Vec<Value>,
    expected: Vec<Value>,
    /// Compile and run wall of the prefilter (s): the estimate of one
    /// job's daemon work.
    cost: f64,
}

/// Fuzz program `f` of the seed's stream, if it compiles and runs; its
/// expected outputs come from the interpreter.
fn fuzz_program(seed: u64, f: u64) -> Option<FuzzProgram> {
    let case = futhark_fuzz::generate(
        futhark_fuzz::case_seed(seed ^ FUZZ_SALT, f),
        &futhark_fuzz::GenConfig::default(),
    );
    let (source, args) = (case.source(), case.args());
    let t = Instant::now();
    let c = Compiler::new().compile(&source).ok()?;
    c.run_with_opts(Device::Gtx780, &args, run_opts(1)).ok()?;
    let cost = t.elapsed().as_secs_f64();
    let expected = futhark::interpret(&source, &args).ok()?;
    Some(FuzzProgram {
        source,
        args,
        expected,
        cost,
    })
}

/// Maps `f` over `items` on `threads` threads, keeping the order.
fn par_map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.max(1);
    let mut parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    (t..items.len())
                        .step_by(threads)
                        .map(|i| (i, f(&items[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect()
    });
    let mut all: Vec<(usize, R)> = parts.drain(..).flatten().collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

/// Prepares the stream until its estimated daemon work, spread over the
/// devices, covers `secs` seconds. The estimate is each job's compile and
/// run alone; the daemon also parses, admits and encodes, so the stream
/// lasts longer than `secs`. The stream itself is a fixed function of the
/// seed: fuzz jobs and paper jobs alternate, each fuzz program being sent
/// under `SCHEDULES_PER_FUZZ` schedules, every job under the next sampled
/// schedule. Only its length depends on the host.
fn prep_cold(
    s: &Settings,
    benches: &[Benchmark],
    small: &[Vec<Value>],
    secs: f64,
    tracer: Option<&Tracer>,
) -> ColdPool {
    // Each paper job's cost is estimated from one default-schedule
    // compile and run of it.
    let paper_cost: Vec<f64> = benches
        .iter()
        .map(|b| {
            let t = Instant::now();
            if let Ok(c) = Compiler::new().compile(&b.source) {
                let _ = c.run_with_opts(Device::Gtx780, &b.small_args, run_opts(1));
            }
            t.elapsed().as_secs_f64()
        })
        .collect();
    let mut pool = ColdPool {
        programs: benches
            .iter()
            .map(|b| (b.source.clone(), b.small_args.clone()))
            .collect(),
        expected: small.to_vec(),
        jobs: Vec::new(),
        skipped: 0,
        compile: Vec::new(),
        runs: Vec::new(),
        decode_us: Vec::new(),
    };
    // Traced runs compile and run the stream's first `TRACED_JOBS` jobs
    // once more, traced.
    let mut inputs: Vec<(u64, String, Vec<Value>, Schedule)> = Vec::new();
    let class = DeviceProfile::gtx780();
    let mut order = permutation_order(s.seed, benches.len());
    let mut seen = HashSet::new();
    let mut cost = 0.0;
    let (mut f, mut k) = (0u64, 0u64);
    while cost / DEVICES as f64 <= secs {
        let ids: Vec<u64> = (f..f + 8 * s.nproc as u64).collect();
        f += ids.len() as u64;
        for prog in par_map(&ids, s.nproc, |&i| fuzz_program(s.seed, i)) {
            let Some(prog) = prog else {
                pool.skipped += 1;
                continue;
            };
            pool.programs.push((prog.source, prog.args));
            pool.expected.push(prog.expected);
            let f = pool.programs.len() - 1;
            for _ in 0..SCHEDULES_PER_FUZZ {
                let p = order();
                for (e, c) in [(f, prog.cost), (p, paper_cost[p])] {
                    let sched = schedule(s.seed, k);
                    let (source, args) = &pool.programs[e];
                    // Every request must be a pair the daemon has not seen.
                    if seen.insert(artifact_key_sched(source, &sched, &class)) {
                        pool.jobs.push((e, k));
                        cost += c;
                        if tracer.is_some() && inputs.len() < TRACED_JOBS {
                            let job = layers::STREAM_JOBS + inputs.len() as u64;
                            inputs.push((job, source.clone(), args.clone(), sched));
                        }
                    }
                    k += 1;
                }
            }
        }
    }
    if let Some(tr) = tracer {
        let traced = par_map(&inputs, s.nproc, |(job, source, args, sched)| {
            let job = *job;
            let c = layers::compile_traced(tr, job, 0, source, sched).ok()?;
            let (_, perf) = c.run_with_opts(Device::Gtx780, args, run_opts(1)).ok()?;
            let d = layers::decode_us(tr, job, 0, &c);
            Some((c.report.clone().expect("traced compile"), perf, d))
        });
        for (report, perf, d) in traced.into_iter().flatten() {
            pool.compile.push(report);
            pool.runs.push(perf);
            pool.decode_us.push(d);
        }
    }
    pool
}

/// Latency, passes, modelled times and throughput of a closed-loop phase.
fn cold_figures(sent: &[Sent], sink: &Sink, checker: &Checker) -> (Vec<f64>, Vec<f64>, usize, f64) {
    let lat = latencies(sent, sink, &checker.failed);
    let mut arrivals: Vec<Instant> = sent.iter().filter_map(|r| sink.arrival(r.id)).collect();
    arrivals.sort();
    // A pass is sixteen consecutive completions.
    let passes: Vec<f64> = arrivals
        .windows(17)
        .step_by(16)
        .map(|w| w[16].saturating_duration_since(w[0]).as_secs_f64())
        .collect();
    let (completed, jobs_per_s) = throughput(sent, sink, &checker.failed);
    (lat, passes, completed, jobs_per_s)
}

/// Untraced `serve_cold`.
pub fn run(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let benches = all_benchmarks();
    let Some(small) = small_references(&benches, &mut ledger) else {
        out.ledger = ledger;
        return out;
    };
    let pool = prep_cold(s, &benches, &small, s.seconds, None);
    let mut checker = Checker::new(&pool.expected);
    let (server, setup, _) = timed_setups(SETUP_REPEATS_COLD, || Server::start(None).ready());
    let sent = closed_loop(
        &server,
        s.nproc,
        s.seconds,
        &pool.jobs,
        |j| pool.body(s.seed, j),
        &mut checker,
        &mut ledger,
    );
    let (lat, passes, completed, jobs_per_s) = cold_figures(&sent, &server.sink, &checker);
    server.stop();
    out.note(format!(
        "stream: {} jobs prepared ({} fuzz candidates skipped), {} sent by {} clients",
        pool.jobs.len(),
        pool.skipped,
        sent.len(),
        s.nproc
    ));
    out.note(describe_ms("latency (send to reply)", &sorted(lat.clone())));
    e2e_metrics(
        &mut out,
        &setup,
        &passes,
        &checker.modelled_all,
        &lat,
        completed,
        jobs_per_s,
    );
    out.ledger = ledger;
    out
}

/// Traced `serve_cold`: the stream is prepared with traced compiles (the
/// compile, decode and fallback layers of every job), the paper probes
/// run, then half the time goes to an untraced closed loop through
/// `serve_lines` (the overhead baseline) and half to the traced
/// front-end, each on its own part of the stream.
pub fn run_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let tracer = Arc::new(Tracer::new());
    let benches = all_benchmarks();
    let Some(small) = small_references(&benches, &mut ledger) else {
        out.ledger = ledger;
        return out;
    };
    let pool = prep_cold(s, &benches, &small, s.seconds, Some(&tracer));
    layers::compile_metrics(&mut out, &pool.compile.iter().collect::<Vec<_>>());
    layers::interp_metrics(&mut out, &pool.runs.iter().collect::<Vec<_>>());
    if paper_probes(&mut out, &mut ledger, s, &tracer, &benches, &small, false).is_none() {
        out.ledger = ledger;
        return out;
    }
    // The probe's decode time covers the paper programs only; the
    // stream's covers what this workload compiles.
    out.metrics.retain(|m| m.name != "exec.decode_us");
    out.metric(
        "exec.decode_us",
        median(&pool.decode_us),
        "us",
        pool.decode_us.len(),
    );

    let mut checker = Checker::new(&pool.expected);
    let half = s.seconds / 2.0;
    let base = Server::start(None);
    let base_sent = closed_loop(
        &base,
        s.nproc,
        half,
        &pool.jobs,
        |j| pool.body(s.seed, j),
        &mut checker,
        &mut ledger,
    );
    let (base_lat, base_passes, _, _) = cold_figures(&base_sent, &base.sink, &checker);
    base.stop();

    let server = Server::start(Some(Arc::clone(&tracer)));
    let rest = &pool.jobs[base_sent.len().min(pool.jobs.len())..];
    let t = Instant::now();
    let sent = closed_loop(
        &server,
        s.nproc,
        half,
        rest,
        |j| pool.body(s.seed, j),
        &mut checker,
        &mut ledger,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let (lat, passes, _, _) = cold_figures(&sent, &server.sink, &checker);
    serve_metrics(&mut out, &tracer, &server, wall_s);
    let residual = residual_share(&tracer, &sent, &server.sink);
    server.stop();
    out.note(format!(
        "stream: {} jobs prepared ({} fuzz candidates skipped); untraced {} jobs, traced {} jobs",
        pool.jobs.len(),
        pool.skipped,
        base_sent.len(),
        sent.len()
    ));
    traced_e2e(
        &mut out,
        &tracer,
        median(&passes),
        median(&base_passes),
        &lat,
        &base_lat,
        residual,
        0.0,
    );
    finish_trace(&mut out, &tracer, "serve_cold", s.seed);
    out.ledger = ledger;
    out
}
