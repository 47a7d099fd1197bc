//! loadgen — replay a mixed workload against an in-process `futharkd`.
//!
//! The workload mixes the sixteen paper benchmarks (small datasets) with
//! fuzz-generated programs, shuffled per client, and drives them through
//! [`futhark_serve::Daemon`] at one or more concurrency levels. Each
//! level runs two phases against a fresh daemon:
//!
//! - **cold** — first pass; every artifact compiles (all cache misses);
//! - **warm** — the same workload twice more; every job must hit the
//!   artifact cache (warm hit rate ≈ 1.0).
//!
//! Each phase reports p50/p99 latency, jobs/sec, and the phase's cache
//! hit rate. The run also submits a deliberately over-capacity job
//! (an 8 GiB `replicate` against a 3 GiB device) and demands an
//! *admission* rejection carrying the predicted footprint — and it scans
//! every response to assert that no job ever died of a mid-flight
//! `OutOfMemory`: under admission control, jobs that cannot fit are
//! rejected up front.
//!
//! With `--scrape`, each level additionally scrapes the daemon's own
//! telemetry registry (the `metrics` protocol op) after the warm phase
//! and **cross-checks it against the client-side measurements**: the
//! daemon's end-to-end histogram must hold exactly one observation per
//! submitted job, its p50/p99 estimates must agree with the client's
//! measured percentiles within the histogram's 2× bucket bound (plus
//! 1 ms slack; daemon latency is nested inside client latency, so the
//! two bracket each other), and the per-device busy time must fit in
//! the wall-clock budget the clients provided. The scraped registry is
//! written into `BENCH_serve.json` next to the client-side numbers.
//!
//! Usage: loadgen [--quick] [--clients N] [--sweep] [--fuzz N] [--out FILE]
//!                [--scrape] [--chrome FILE]
//!        loadgen --check-schema FILE
//!
//!   --quick       CI smoke: fewer fuzz programs and warm repeats
//!   --clients N   client threads (default 4; ignored with --sweep)
//!   --sweep       run the 1/4/16-client ladder (the EXPERIMENTS table)
//!   --fuzz N      fuzz-generated programs in the mix (default 8)
//!   --out FILE    output path (default BENCH_serve.json)
//!   --scrape      scrape daemon telemetry per level, self-assert
//!                 client/daemon agreement, embed the registry in the
//!                 output
//!   --chrome FILE write the last level's daemon timeline (one track
//!                 per device plus the queue) as a Chrome/Perfetto trace
//!   --check-schema FILE  compare FILE's JSON schema (recursive key set)
//!                 against what loadgen writes today; exit 1 on drift

use futhark::DeviceProfile;
use futhark_bench::all_benchmarks;
use futhark_serve::proto::value_to_json;
use futhark_serve::{Daemon, DaemonConfig};
use futhark_trace::Json;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// One job of the workload: a ready-to-send request line.
#[derive(Clone)]
struct Job {
    name: String,
    line: String,
}

fn run_line(id: &str, source: &str, args: &[futhark_core::Value]) -> String {
    Json::obj(vec![
        ("op", Json::Str("run".into())),
        ("id", Json::Str(id.into())),
        ("source", Json::Str(source.into())),
        ("args", Json::Arr(args.iter().map(value_to_json).collect())),
    ])
    .render()
}

/// The benchmark + fuzz workload. Fuzz cases are pre-filtered: only
/// programs that compile and run cleanly join the mix (loadgen measures
/// the server, not the generator's failure modes).
fn build_workload(fuzz_count: usize) -> Vec<Job> {
    let mut jobs: Vec<Job> = all_benchmarks()
        .into_iter()
        .map(|b| Job {
            name: b.name.to_string(),
            line: run_line(b.name, &b.source, &b.small_args),
        })
        .collect();
    let mut seed = 0u64;
    let cfg = futhark_fuzz::GenConfig::default();
    while jobs.len() < 16 + fuzz_count {
        let case = futhark_fuzz::generate(futhark_fuzz::case_seed(0x10ad, seed), &cfg);
        seed += 1;
        let source = case.source();
        let args = case.args();
        let ok = futhark::Compiler::new()
            .compile(&source)
            .ok()
            .and_then(|c| {
                c.run_with_opts(
                    futhark::Device::Gtx780,
                    &args,
                    futhark::RunOptions::default(),
                )
                .ok()
            })
            .is_some();
        if ok {
            let name = format!("fuzz-{seed}");
            jobs.push(Job {
                line: run_line(&name, &source, &args),
                name,
            });
        }
    }
    jobs
}

struct PhaseOut {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    hit_rate: f64,
    oom: u64,
    errors: Vec<String>,
}

/// Runs `passes` passes over the workload on `clients` threads pulling
/// from a shared queue, rotating each client's starting offset so the
/// tenants interleave.
fn run_phase(daemon: &Daemon, jobs: &[Job], clients: usize, passes: usize) -> PhaseOut {
    let before = daemon.stats().cache;
    let queue: VecDeque<Job> = (0..passes).flat_map(|_| jobs.iter().cloned()).collect();
    let queue = Mutex::new(queue);
    let lat = Mutex::new(Vec::new());
    let oom = Mutex::new(0u64);
    let errors = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let daemon = daemon.clone();
            let queue = &queue;
            let lat = &lat;
            let oom = &oom;
            let errors = &errors;
            scope.spawn(move || loop {
                let job = match queue.lock().expect("queue lock").pop_front() {
                    Some(j) => j,
                    None => break,
                };
                let t = Instant::now();
                let resp = daemon.handle_line(&job.line);
                lat.lock()
                    .expect("lat lock")
                    .push(t.elapsed().as_secs_f64() * 1e3);
                let j = Json::parse(&resp).expect("response is JSON");
                if j.get("status").and_then(Json::as_str) != Some("ok") {
                    let msg = j
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string();
                    if msg.contains("out of device memory") {
                        *oom.lock().expect("oom lock") += 1;
                    }
                    errors
                        .lock()
                        .expect("errors lock")
                        .push(format!("{}: {msg}", job.name));
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let after = daemon.stats().cache;
    let lookups = (after.hits + after.misses) - (before.hits + before.misses);
    let hit_rate = if lookups == 0 {
        0.0
    } else {
        (after.hits - before.hits) as f64 / lookups as f64
    };
    let mut latencies_ms = lat.into_inner().expect("lat lock");
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    PhaseOut {
        latencies_ms,
        wall_s,
        hit_rate,
        oom: oom.into_inner().expect("oom lock"),
        errors: errors.into_inner().expect("errors lock"),
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[idx]
}

fn phase_json(p: &PhaseOut) -> Json {
    Json::obj(vec![
        ("jobs", Json::U64(p.latencies_ms.len() as u64)),
        ("p50_ms", Json::F64(percentile(&p.latencies_ms, 50.0))),
        ("p99_ms", Json::F64(percentile(&p.latencies_ms, 99.0))),
        (
            "jobs_per_sec",
            Json::F64(p.latencies_ms.len() as f64 / p.wall_s.max(1e-9)),
        ),
        ("cache_hit_rate", Json::F64(p.hit_rate)),
    ])
}

/// One scraped histogram, projected to a fixed-schema summary (ms).
fn hist_summary(h: &Json) -> Json {
    let us = |k: &str| h.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    Json::obj(vec![
        (
            "count",
            Json::U64(h.get("count").and_then(Json::as_u64).unwrap_or(0)),
        ),
        ("p50_ms", Json::F64(us("p50_us") / 1e3)),
        ("p99_ms", Json::F64(us("p99_us") / 1e3)),
        ("sum_ms", Json::F64(us("sum_us") / 1e3)),
    ])
}

struct ScrapeCheck {
    row: Json,
    daemon_registry: Json,
    failures: Vec<String>,
}

/// Scrapes the daemon's telemetry registry and cross-checks its latency
/// histograms and job ledger against the client-side measurements of the
/// cold+warm phases. The agreement bounds are the histogram's bucket
/// guarantee: a quantile estimate is within 2× of the true order
/// statistic, and daemon-side end-to-end latency is nested inside the
/// client's measurement, so `daemon_p ≤ 2·client_p + slack` and
/// `client_p ≤ 2·daemon_p + slack` must both hold.
fn scrape_and_check(
    daemon: &Daemon,
    cold: &PhaseOut,
    warm: &PhaseOut,
    ndevices: usize,
) -> ScrapeCheck {
    let mut failures = Vec::new();
    let resp = Json::parse(&daemon.handle_line(r#"{"op":"metrics","id":"scrape"}"#))
        .expect("metrics response is JSON");
    let m = resp.get("metrics").expect("metrics body").clone();
    let counters = m.get("counters").expect("counters");
    let c = |k: &str| counters.get(k).and_then(Json::as_u64).unwrap_or(0);
    let hists = m.get("histograms").expect("histograms");
    let e2e = hists.get("e2e_us").expect("e2e_us");

    // Client-side view: both phases combined.
    let mut client: Vec<f64> = cold
        .latencies_ms
        .iter()
        .chain(&warm.latencies_ms)
        .copied()
        .collect();
    client.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let client_jobs = client.len() as u64;
    let client_p50 = percentile(&client, 50.0);
    let client_p99 = percentile(&client, 99.0);
    let wall_s = cold.wall_s + warm.wall_s;
    let client_jps = client_jobs as f64 / wall_s.max(1e-9);

    // Daemon-side view.
    let daemon_jobs = e2e.get("count").and_then(Json::as_u64).unwrap_or(0);
    let daemon_p50 = e2e.get("p50_us").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
    let daemon_p99 = e2e.get("p99_us").and_then(Json::as_f64).unwrap_or(0.0) / 1e3;
    let daemon_jps = daemon_jobs as f64 / wall_s.max(1e-9);
    let busy_us: u64 = m
        .get("devices")
        .and_then(Json::as_arr)
        .expect("devices")
        .iter()
        .map(|d| d.get("busy_us").and_then(Json::as_u64).unwrap_or(0))
        .sum();

    // Ledger: every client job was admitted, executed, and observed
    // exactly once by every latency histogram.
    if c("jobs.admitted") != client_jobs {
        failures.push(format!(
            "daemon admitted {} jobs, clients submitted {client_jobs}",
            c("jobs.admitted")
        ));
    }
    for name in ["queue_wait_us", "execute_us", "e2e_us"] {
        let n = hists
            .get(name)
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if n != client_jobs {
            failures.push(format!(
                "histogram {name} holds {n} jobs, expected {client_jobs}"
            ));
        }
    }
    if c("jobs.completed") != client_jobs {
        failures.push(format!(
            "daemon completed {} of {client_jobs} jobs",
            c("jobs.completed")
        ));
    }
    // Percentile agreement under the 2x bucket bound (+1 ms slack for
    // client-side overhead around handle_line).
    const SLACK_MS: f64 = 1.0;
    for (name, d, cl) in [
        ("p50", daemon_p50, client_p50),
        ("p99", daemon_p99, client_p99),
    ] {
        if d > 2.0 * cl + SLACK_MS {
            failures.push(format!(
                "daemon {name} {d:.3} ms exceeds 2x client {name} {cl:.3} ms + {SLACK_MS} ms"
            ));
        }
        if cl > 2.0 * d + SLACK_MS {
            failures.push(format!(
                "client {name} {cl:.3} ms exceeds 2x daemon {name} {d:.3} ms + {SLACK_MS} ms"
            ));
        }
    }
    // Device busy time cannot exceed the wall-clock budget the clients
    // provided (10% + 10 ms tolerance for timer skew).
    let budget_us = wall_s * 1e6 * ndevices as f64 * 1.10 + 10_000.0;
    if (busy_us as f64) > budget_us {
        failures.push(format!(
            "device busy time {busy_us} µs exceeds wall budget {budget_us:.0} µs"
        ));
    }
    // Gauges drained back to zero: nothing in flight after the phases.
    let gauges = m.get("gauges").expect("gauges");
    for g in ["inflight", "queue_depth", "devices_busy"] {
        let v = gauges.get(g).and_then(Json::as_u64).unwrap_or(u64::MAX);
        if v != 0 {
            failures.push(format!("gauge {g} is {v} after drain, expected 0"));
        }
    }

    // Fixed-schema projection of the scraped registry for the output.
    let declared: Vec<(&str, Json)> = [
        "jobs.received",
        "jobs.admitted",
        "jobs.rejected",
        "jobs.completed",
        "jobs.failed",
        "protocol.errors",
        "queue.waits",
        "cache.hits",
        "cache.misses",
    ]
    .iter()
    .map(|&k| (k, Json::U64(c(k))))
    .collect();
    let devices: Vec<Json> = m
        .get("devices")
        .and_then(Json::as_arr)
        .expect("devices")
        .iter()
        .map(|d| {
            Json::obj(vec![
                (
                    "name",
                    Json::Str(d.get("name").and_then(Json::as_str).unwrap_or("?").into()),
                ),
                (
                    "jobs",
                    Json::U64(d.get("jobs").and_then(Json::as_u64).unwrap_or(0)),
                ),
                (
                    "busy_us",
                    Json::U64(d.get("busy_us").and_then(Json::as_u64).unwrap_or(0)),
                ),
            ])
        })
        .collect();
    let daemon_registry = Json::obj(vec![
        ("counters", Json::obj(declared)),
        (
            "histograms",
            Json::obj(
                ["queue_wait_us", "compile_us", "execute_us", "e2e_us"]
                    .iter()
                    .map(|&n| (n, hist_summary(hists.get(n).expect("histogram"))))
                    .collect(),
            ),
        ),
        ("devices", Json::Arr(devices)),
    ]);
    let row = Json::obj(vec![
        ("client_p50_ms", Json::F64(client_p50)),
        ("client_p99_ms", Json::F64(client_p99)),
        ("daemon_p50_ms", Json::F64(daemon_p50)),
        ("daemon_p99_ms", Json::F64(daemon_p99)),
        ("client_jobs", Json::U64(client_jobs)),
        ("daemon_jobs", Json::U64(daemon_jobs)),
        ("client_jobs_per_sec", Json::F64(client_jps)),
        ("daemon_jobs_per_sec", Json::F64(daemon_jps)),
        ("device_busy_us", Json::U64(busy_us)),
        ("agreement", Json::Bool(failures.is_empty())),
    ]);
    ScrapeCheck {
        row,
        daemon_registry,
        failures,
    }
}

fn main() {
    let mut quick = false;
    let mut clients = 4usize;
    let mut sweep = false;
    let mut fuzz_count = 8usize;
    let mut out = "BENCH_serve.json".to_string();
    let mut schema: Option<String> = None;
    let mut scrape = false;
    let mut chrome: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().expect("flag value");
        match a.as_str() {
            "--quick" => quick = true,
            "--clients" => clients = val().parse().expect("--clients N"),
            "--sweep" => sweep = true,
            "--fuzz" => fuzz_count = val().parse().expect("--fuzz N"),
            "--out" => out = val(),
            "--scrape" => scrape = true,
            "--chrome" => chrome = Some(val()),
            "--check-schema" => schema = Some(val()),
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2)
            }
        }
    }
    if quick {
        fuzz_count = fuzz_count.min(4);
    }
    let warm_passes = if quick { 1 } else { 2 };

    eprintln!("loadgen: building workload (16 benchmarks + {fuzz_count} fuzz programs)");
    let jobs = build_workload(fuzz_count);
    let levels: Vec<usize> = if sweep { vec![1, 4, 16] } else { vec![clients] };

    let mut level_rows = Vec::new();
    let mut total_oom = 0u64;
    let mut warm_rates = Vec::new();
    let mut scrape_failures: Vec<String> = Vec::new();
    let mut last_registry: Option<Json> = None;
    let mut chrome_doc: Option<Json> = None;
    for &c in &levels {
        // A fresh daemon per level: cold means cold.
        let daemon = Daemon::new(DaemonConfig {
            devices: (0..c.min(8))
                .map(|i| {
                    let mut d = DeviceProfile::gtx780();
                    d.name = format!("gtx780#{i}");
                    d
                })
                .collect(),
            workers: c,
            cache_capacity: 256,
            ..DaemonConfig::default()
        });
        eprintln!("loadgen: {c} client(s), cold pass ({} jobs)", jobs.len());
        let cold = run_phase(&daemon, &jobs, c, 1);
        for e in &cold.errors {
            eprintln!("loadgen: cold-phase job failed: {e}");
        }
        eprintln!(
            "loadgen: {c} client(s), warm pass ({} jobs)",
            jobs.len() * warm_passes
        );
        let warm = run_phase(&daemon, &jobs, c, warm_passes);
        for e in &warm.errors {
            eprintln!("loadgen: warm-phase job failed: {e}");
        }
        if !cold.errors.is_empty() || !warm.errors.is_empty() {
            eprintln!("loadgen: workload jobs must all succeed");
            std::process::exit(1);
        }
        total_oom += cold.oom + warm.oom;
        warm_rates.push(warm.hit_rate);
        let mut row = vec![
            ("clients", Json::U64(c as u64)),
            ("cold", phase_json(&cold)),
            ("warm", phase_json(&warm)),
        ];
        if scrape {
            let check = scrape_and_check(&daemon, &cold, &warm, c.min(8));
            for f in &check.failures {
                eprintln!("loadgen: scrape disagreement at {c} client(s): {f}");
                scrape_failures.push(format!("{c} client(s): {f}"));
            }
            row.push(("scrape", check.row));
            last_registry = Some(check.daemon_registry);
            if chrome.is_some() {
                let resp = Json::parse(
                    &daemon.handle_line(r#"{"op":"metrics","id":"chrome","format":"chrome"}"#),
                )
                .expect("chrome metrics response is JSON");
                chrome_doc = resp.get("metrics").cloned();
            }
        }
        level_rows.push(Json::obj(row));
    }

    // Admission-control probe: an 8 GiB replicate against 3 GiB devices
    // must be rejected up front with the prediction attached.
    let daemon = Daemon::new(DaemonConfig::default());
    let huge = run_line(
        "over-capacity",
        "fun main (n: i64): [n]i64 = replicate n 7",
        &[futhark_core::Value::i64(1i64 << 30)],
    );
    let resp = Json::parse(&daemon.handle_line(&huge)).expect("response is JSON");
    let rejected = resp.get("kind").and_then(Json::as_str) == Some("admission");
    let predicted = resp
        .get("predicted_peak_bytes")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let capacity = resp.get("capacity").and_then(Json::as_u64).unwrap_or(0);

    let mut doc_fields = vec![
        (
            "workload",
            Json::obj(vec![
                ("benchmarks", Json::U64(16)),
                ("fuzz_programs", Json::U64(fuzz_count as u64)),
                ("jobs_per_pass", Json::U64(jobs.len() as u64)),
                ("warm_passes", Json::U64(warm_passes as u64)),
            ]),
        ),
        ("levels", Json::Arr(level_rows)),
        (
            "admission",
            Json::obj(vec![
                ("rejected", Json::Bool(rejected)),
                ("predicted_peak_bytes", Json::U64(predicted)),
                ("capacity_bytes", Json::U64(capacity)),
            ]),
        ),
        ("mid_flight_oom", Json::U64(total_oom)),
    ];
    if let Some(reg) = last_registry {
        doc_fields.push(("daemon", reg));
    }
    let doc = Json::obj(doc_fields);

    if let Some(path) = schema {
        futhark_bench::check_schema(
            &path,
            &doc,
            "loadgen",
            &format!("cargo run --release -p futhark-bench --bin loadgen -- --sweep --out {path}"),
        );
    }

    // The serve contract, asserted on every run.
    let mut failed = false;
    if total_oom != 0 {
        eprintln!("loadgen: FAIL — {total_oom} mid-flight OutOfMemory job(s); admission must prevent these");
        failed = true;
    }
    if !rejected || predicted <= capacity {
        eprintln!("loadgen: FAIL — over-capacity probe was not rejected at admission (predicted {predicted}, capacity {capacity})");
        failed = true;
    }
    for (c, rate) in levels.iter().zip(&warm_rates) {
        if *rate < 0.999 {
            eprintln!("loadgen: FAIL — warm hit rate {rate:.3} at {c} client(s); expected ~1.0");
            failed = true;
        }
    }
    if !scrape_failures.is_empty() {
        eprintln!(
            "loadgen: FAIL — {} client/daemon telemetry disagreement(s)",
            scrape_failures.len()
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }

    std::fs::write(&out, doc.render_pretty()).expect("write results");
    println!("loadgen: wrote {out}");
    if let (Some(path), Some(trace)) = (&chrome, &chrome_doc) {
        std::fs::write(path, trace.render_pretty()).expect("write chrome trace");
        println!("loadgen: wrote daemon timeline {path}");
    }
    for (c, row) in levels
        .iter()
        .zip(doc.get("levels").and_then(Json::as_arr).expect("levels"))
    {
        let g = |ph: &str, k: &str| {
            row.get(ph)
                .and_then(|p| p.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        println!(
            "  {c:>2} client(s): cold p50 {:7.2} ms  p99 {:7.2} ms  {:6.1} jobs/s | warm p50 {:7.2} ms  p99 {:7.2} ms  {:6.1} jobs/s  hit rate {:.3}",
            g("cold", "p50_ms"),
            g("cold", "p99_ms"),
            g("cold", "jobs_per_sec"),
            g("warm", "p50_ms"),
            g("warm", "p99_ms"),
            g("warm", "jobs_per_sec"),
            g("warm", "cache_hit_rate"),
        );
    }
}
