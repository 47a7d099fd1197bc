//! perfbench — the repository benchmark of futhark-rs.
//!
//! One command runs one named workload against the public APIs and
//! prints every metric by name, with its unit and sample count:
//!
//! - `paper_suite`: the sixteen Table 1 programs, compiled once, run pass
//!   after pass on their full datasets through `Compiled::run_with_opts`
//!   (GTX 780 profile, warp engine, `threads = nproc`);
//! - `serve_warm`: an open loop at a fixed offered rate into an
//!   in-process `futharkd` (`Daemon` behind `serve_lines`) whose artifact
//!   cache already holds every program;
//! - `serve_cold`: a closed loop of `nproc` clients whose every request is
//!   a (program, schedule) pair the daemon has not seen.
//!
//! Two clocks are kept apart: every timing is host wall-clock, while
//! `modelled_geomean_us` is the simulated GPU's clock (the paper's own
//! metric, deterministic by construction).
//!
//! Every workload reports every end-to-end metric. `pass_s` is the wall
//! of sixteen jobs (one pass over the programs on `paper_suite`; sixteen
//! consecutive requests on the serving workloads), `jobs_per_s` the jobs
//! completed per second, and `p50_ms`/`p99_ms` one job's latency. On
//! `paper_suite` a job is one program run, and the percentiles are each
//! pass's over its sixteen runs, medianed over the passes; on the serving
//! workloads a job is one request, and each percentile is the lower
//! quartile over the run's windows of a thousand requests of the window's
//! percentile (see `stats::windowed`).
//!
//! With `--trace 0` the end-to-end metrics are reported; with `--trace 1`
//! the same traffic is driven through the benchmark's own span recorder
//! around each call into a layer, and the per-layer metrics are reported
//! instead (spans go to `perfbench/out/` as a Chrome/Perfetto trace).
//! Layers a workload does not exercise are measured by probes in its
//! traced run, so that every traced run reports every layer. Which
//! end-to-end figure each layer should move:
//!
//! | per-layer metrics | should move |
//! |---|---|
//! | `frontend.*`, `check.*`, `opt.*`, `gpu.*` (compile passes) | `serve_cold` `p50_ms`, `jobs_per_s`; `paper_suite` `setup_s`; not `pass_s` |
//! | `exec.run_ms.*`, `exec.ns_per_warp_instr`, `exec.par_speedup.*` | `paper_suite` `pass_s` |
//! | `exec.uniform_hit_rate`, `exec.launches`, `exec.transposes`, `exec.warp_instructions` | `pass_s` on divergent and launch-heavy programs; together they explain `modelled_geomean_us` |
//! | `exec.decode_us` | `serve_warm` `p50_ms`; not `pass_s` |
//! | `exec.sim_peak_bytes`, `exec.mem_reuse_rate` | `peak_rss_mb` |
//! | `interp.fallbacks`, `interp.fallback_share` | `serve_cold`; `modelled_geomean_us` |
//! | `serve.parse_us`, `serve.handle_us`, `serve.encode_us`, `serve.*_bytes` | `serve_warm` `p50_ms` |
//! | `serve.compile_us` / `serve.queue_us` / `serve.execute_us`, `serve.admit_us` | `serve_cold` / `serve_warm` `p99_ms` / `serve_warm` `p50_ms` |
//! | `cache.*`, `serve.queue_waits`, `serve.device_busy_frac` | `serve_cold` `jobs_per_s`; `serve_warm` `p99_ms` |
//! | `trace.*` | reconcile the layers with the traced `pass_s` and `p50_ms`, and give the tracing overhead |
//!
//! Usage:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_suite --seed 1 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --write-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any wrong output makes
//! `correct` false and the exit code 1.

mod cold;
mod layers;
mod serve;
mod stats;
mod suite;
mod tracer;

use futhark_core::rng::Rng64;
use futhark_serve::hash::Fnv1a;
use futhark_trace::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Run settings shared by every workload.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    /// Host threads available (`available_parallelism`).
    pub nproc: usize,
}

/// Operations attempted and failed, by failure kind.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    failed: BTreeMap<&'static str, u64>,
    /// First few failure descriptions, for the report.
    examples: Vec<String>,
}

/// The failure kinds the ledger distinguishes.
pub const FAILURE_KINDS: [&str; 5] = ["compile", "run", "admission", "protocol", "wrong_output"];

impl Ledger {
    pub fn fail(&mut self, kind: &'static str, what: String) {
        debug_assert!(FAILURE_KINDS.contains(&kind), "unknown failure kind {kind}");
        *self.failed.entry(kind).or_default() += 1;
        if self.examples.len() < 8 {
            self.examples.push(format!("{kind}: {what}"));
        }
    }

    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    pub fn wrong_outputs(&self) -> u64 {
        self.failed.get("wrong_output").copied().unwrap_or(0)
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarises (1 for a single measurement).
    pub samples: usize,
}

/// What a workload run produces.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub ledger: Ledger,
    /// Human-readable report lines, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Host peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

const WORKLOADS: [&str; 3] = ["paper_suite", "serve_warm", "serve_cold"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;

/// A seeded endless order of `0..n`: one permutation after another.
pub fn permutation_order(seed: u64, n: usize) -> impl FnMut() -> usize {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut buf: Vec<usize> = Vec::new();
    move || {
        if buf.is_empty() {
            buf = (0..n).collect();
            for i in (1..n).rev() {
                buf.swap(i, rng.pick(i + 1));
            }
        }
        buf.pop().expect("non-empty permutation")
    }
}

/// The repository root (the benchmark package's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The commit under test: git's `HEAD` when the checkout has one, and in
/// any case an FNV-1a digest of the sources the benchmark builds
/// (`crates/` and `perfbench/src/`, plus the workspace lock file).
fn commit_id() -> String {
    let root = repo_root();
    let git = std::fs::read_to_string(root.join(".git/HEAD"))
        .ok()
        .and_then(|h| match h.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(root.join(".git").join(r)).ok(),
            None => Some(h),
        })
        .map_or_else(|| "none".to_string(), |c| c.trim().to_string());
    let mut files = Vec::new();
    for dir in ["crates", "perfbench/src"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv1a::default();
    for f in &files {
        h.update_str(&f.strip_prefix(&root).unwrap_or(f).to_string_lossy());
        h.update(&std::fs::read(f).unwrap_or_default());
    }
    format!("git:{git} sources:{:016x}", h.finish())
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(p.extension().and_then(|x| x.to_str()), Some("rs" | "toml")) {
            out.push(p);
        }
    }
}

/// The metric names and units `BENCHMARK.json` declares for this kind of
/// run (`end_to_end` untraced, `per_layer` traced).
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or_else(|| format!("malformed {key} entry"))
        })
        .collect()
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>\n       \
         perfbench --write-reference",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut write_reference = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                seconds = val()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                trace = match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--write-reference" => write_reference = true,
            _ => usage(),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if write_reference {
        suite::write_reference();
        return;
    }
    let workload = workload.unwrap_or_else(|| usage());
    let settings = Settings {
        seed,
        seconds,
        nproc,
    };
    // Refuse to run if the declared metric set cannot be read: the
    // result line must report exactly what BENCHMARK.json declares.
    let declared = declared_metrics(trace).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2)
    });
    let out = match (workload.as_str(), trace) {
        ("paper_suite", false) => suite::run(&settings),
        ("paper_suite", true) => suite::run_traced(&settings),
        ("serve_warm", false) => serve::run_warm(&settings),
        ("serve_warm", true) => serve::run_warm_traced(&settings),
        ("serve_cold", false) => cold::run(&settings),
        ("serve_cold", true) => cold::run_traced(&settings),
        _ => usage(),
    };
    let mut reported: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut want = declared;
    reported.sort();
    want.sort();
    let complete = reported == want;
    if !complete && out.ledger.failed() == 0 {
        eprintln!("perfbench: reported metrics differ from BENCHMARK.json:");
        eprintln!("  reported: {reported:?}");
        eprintln!("  declared: {want:?}");
        std::process::exit(2)
    }
    report(&workload, &settings, trace, out, complete);
}

/// Prints the human-readable report, then the result line; exits 1 on
/// any wrong output, or when a failure cut the run short of measuring
/// every metric.
fn report(workload: &str, s: &Settings, trace: bool, out: Outcome, complete: bool) {
    println!(
        "perfbench workload={workload} seed={} seconds={} trace={} nproc={} threads={} \
         engine=warp device=gtx780 commit={}",
        s.seed,
        s.seconds,
        u8::from(trace),
        s.nproc,
        s.nproc,
        commit_id(),
    );
    for line in &out.notes {
        println!("  {line}");
    }
    let l = &out.ledger;
    let kinds: Vec<String> = FAILURE_KINDS
        .iter()
        .map(|k| format!("{k}={}", l.failed.get(k).copied().unwrap_or(0)))
        .collect();
    println!(
        "  ledger: attempted={} failed={} ({})",
        l.attempted,
        l.failed(),
        kinds.join(" ")
    );
    for e in &l.examples {
        println!("  failure: {e}");
    }
    for m in &out.metrics {
        println!(
            "  metric {:<32} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let correct = l.wrong_outputs() == 0 && l.attempted > 0 && complete;
    let metrics = Json::Obj(
        out.metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::F64(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(l.attempted)),
        ("failed", Json::U64(l.failed())),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
