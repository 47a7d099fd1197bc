//! N-body accelerations (the Accelerate benchmark of Section 6): a map
//! whose every element folds over all bodies — the bodies arrays are
//! invariant to the parallel dimension, so the compiler stages them through
//! local memory (1-D block tiling, Section 5.2).
//!
//!     cargo run --release --example nbody

use futhark::{Compiler, Device, RunOptions, Schedule};
use futhark_core::{ArrayVal, Value};

const SRC: &str = "\
fun main (n: i64) (xs: [n]f32) (ys: [n]f32) (ms: [n]f32): ([n]f32, [n]f32) =
  let (axs, ays) = map (\\(xi: f32) (yi: f32) ->
    let (ax, ay) = loop (ax = 0.0f32, ay = 0.0f32) for j < n do (
      let xj = xs[j]
      let yj = ys[j]
      let mj = ms[j]
      let dx = xj - xi
      let dy = yj - yi
      let r2 = dx * dx + dy * dy + 0.01f32
      let inv = 1.0f32 / (r2 * sqrt r2)
      in (ax + mj * dx * inv, ay + mj * dy * inv))
    in (ax, ay)) xs ys
  in (axs, ays)";

fn main() -> Result<(), futhark::Error> {
    let n = 2048usize;
    let xs: Vec<f32> = (0..n)
        .map(|i| ((i * 37) % 100) as f32 / 50.0 - 1.0)
        .collect();
    let ys: Vec<f32> = (0..n)
        .map(|i| ((i * 61) % 100) as f32 / 50.0 - 1.0)
        .collect();
    let ms: Vec<f32> = (0..n)
        .map(|i| 0.1 + ((i * 13) % 10) as f32 / 10.0)
        .collect();
    let args = vec![
        Value::i64(n as i64),
        Value::Array(ArrayVal::from_f32s(xs)),
        Value::Array(ArrayVal::from_f32s(ys)),
        Value::Array(ArrayVal::from_f32s(ms)),
    ];
    for (name, sched) in [
        ("tiled (default)", Schedule::default()),
        ("untiled", Schedule::without(&["tiling"])),
    ] {
        let compiled = Compiler::with_schedule(sched).compile(SRC)?;
        let (_, perf) = compiled.run_with_opts(Device::Gtx780, &args, RunOptions::default())?;
        println!(
            "{name:<18} {:>8.3} ms   {} global transactions, {} local accesses",
            perf.total_ms(),
            perf.stats.global_transactions,
            perf.stats.local_accesses
        );
    }
    Ok(())
}
