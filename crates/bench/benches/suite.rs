//! Wall-clock benchmarks: one per paper table/figure, on a dependency-free
//! harness (`harness = false`; the external criterion crate is not
//! available offline).
//!
//! - `table1/<name>-<device>`: end-to-end simulated runtime of each of the
//!   16 benchmarks (the rows of Table 1 / bars of Figure 13). The harness
//!   times our simulator; the *simulated* milliseconds are what the
//!   `table1` binary reports.
//! - `impact/*`: the Section 6.1.1 ablation configurations.

use futhark::{Device, RunOptions, Schedule};
use std::time::Instant;

const SAMPLES: u32 = 10;

fn bench<F: FnMut()>(group: &str, name: &str, mut f: F) {
    // One warm-up, then the median of SAMPLES timed runs.
    f();
    let mut times: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    println!(
        "{group}/{name}: median {:.3} ms  (min {:.3}, max {:.3}, n={SAMPLES})",
        times[times.len() / 2],
        times[0],
        times[times.len() - 1]
    );
}

fn bench_table1(run: RunOptions) {
    for b in futhark_bench::all_benchmarks() {
        // Compile once; measure the simulated execution.
        let compiled = match b.compile(Schedule::default()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("skipping {}: {e}", b.name);
                continue;
            }
        };
        bench("table1", &format!("{}-gtx780", b.name), || {
            compiled
                .run_with_opts(Device::Gtx780, &b.small_args, run)
                .expect("runs");
        });
    }
}

fn bench_impact(run: RunOptions) {
    let b = futhark_bench::benchmark("MRI-Q").expect("exists");
    for (tag, off) in [
        ("all-on", &[][..]),
        ("no-fusion", &["fusion"]),
        ("no-coalescing", &["coalescing"]),
        ("no-tiling", &["tiling"]),
    ] {
        let compiled = b.compile(Schedule::without(off)).expect("compiles");
        bench("impact", &format!("mriq-{tag}"), || {
            compiled
                .run_with_opts(Device::Gtx780, &b.small_args, run)
                .expect("runs");
        });
    }
}

fn main() {
    // `cargo bench` passes filter/flag arguments; accept an optional
    // substring filter and ignore `--bench`-style flags.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let want = |name: &str| filter.as_deref().is_none_or(|f| name.contains(f));
    let run = futhark_bench::run_options_from_env();
    if want("table1") {
        bench_table1(run);
    }
    if want("impact") {
        bench_impact(run);
    }
}
