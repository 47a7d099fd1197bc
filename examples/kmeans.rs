//! K-means clustering — the paper's running example (Section 2.4).
//!
//! Demonstrates the three formulations of Figure 4 (sequential loop,
//! work-inefficient parallel, and `stream_red` with in-place updates) and
//! measures them on the simulated GPU.
//!
//!     cargo run --release --example kmeans

use futhark::{Compiler, Device, RunOptions};
use futhark_core::{ArrayVal, Value};

const FIG4A: &str = "\
fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =
  let zeros = replicate k 0
  let counts = loop (c = zeros) for i < n do (
    let cluster = membership[i]
    let old = c[cluster]
    in c with [cluster] <- old + 1)
  in counts";

const FIG4B: &str = "\
fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =
  let increments = map (\\(cluster: i64) ->
    let incr = replicate k 0
    let incr[cluster] = 1
    in incr) membership
  let zeros = replicate k 0
  let counts = reduce (\\(x: [k]i64) (y: [k]i64) -> map (+) x y) zeros increments
  in counts";

const FIG4C: &str = "\
fun main (n: i64) (k: i64) (membership: [n]i64): [k]i64 =
  let zeros = replicate k 0
  let counts = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)
    (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->
      loop (a = acc) for i < chunk do (
        let cluster = cs[i]
        let old = a[cluster]
        in a with [cluster] <- old + 1))
    zeros membership
  in counts";

fn main() -> Result<(), futhark::Error> {
    let n = 32_768i64;
    let k = 64i64;
    let membership: Vec<i64> = (0..n).map(|i| (i * 2654435761) % k).collect();
    let args = vec![
        Value::i64(n),
        Value::i64(k),
        Value::Array(ArrayVal::from_i64s(membership)),
    ];
    let mut reference: Option<Vec<Value>> = None;
    for (name, src) in [
        ("Figure 4a (sequential loop)", FIG4A),
        ("Figure 4b (O(n*k) parallel)", FIG4B),
        ("Figure 4c (stream_red + in-place)", FIG4C),
    ] {
        let compiled = Compiler::new().compile(src)?;
        let (out, perf) = compiled.run_with_opts(Device::Gtx780, &args, RunOptions::default())?;
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "formulations disagree!"),
        }
        println!("{name:<36} {:>9.3} simulated ms", perf.total_ms());
    }
    println!("all three formulations agree (Section 2.4).");
    Ok(())
}
