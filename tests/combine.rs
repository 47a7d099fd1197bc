//! The second stage of a two-stage reduction: per-thread partials folded
//! by the compiled combine operator.
//!
//! `reduce` and `stream_red` run as a chunked per-thread fold (one partial
//! per thread) followed by a fold of the partials with the combine
//! operator, left to right from the initial value — the interpreter's own
//! order. These tests pin that order bit for bit against
//! `futhark::interpret` on operators whose results depend on it, on both
//! engines and at 1 and 2 host threads, and pin that a faulting operator
//! is a run error, identical across engines, never a panic.

use futhark::{
    Compiled, Compiler, Device, Error, PerfReport, RunOptions, SimEngine, TimelineEvent,
};
use futhark_core::{ArrayVal, Buffer, Value};

const CONFIGS: [(SimEngine, usize); 4] = [
    (SimEngine::Warp, 1),
    (SimEngine::Warp, 2),
    (SimEngine::Lane, 1),
    (SimEngine::Lane, 2),
];

fn run(
    c: &Compiled,
    args: &[Value],
    engine: SimEngine,
    threads: usize,
) -> Result<(Vec<Value>, PerfReport), Error> {
    let opts = RunOptions {
        threads,
        profile: false,
        engine,
    };
    c.run_with_opts(Device::Gtx780, args, opts)
}

/// Bytes of every partial the run's combines folded.
fn combined_bytes(perf: &PerfReport) -> Vec<u64> {
    perf.timeline
        .iter()
        .filter_map(|e| match e {
            TimelineEvent::DeviceOp { what, bytes, .. } if what == "combine" => Some(*bytes),
            _ => None,
        })
        .collect()
}

/// Compiles `src`, runs it under every configuration, and demands outputs
/// bit-identical to `want`. Returns the combines' partial bytes (the same
/// under every configuration).
fn runs_bit_identical(src: &str, args: &[Value], want: &[Value]) -> Vec<u64> {
    let c = Compiler::new().compile(src).expect("compiles");
    let mut bytes = None;
    for (engine, threads) in CONFIGS {
        let (got, perf) = run(&c, args, engine, threads).expect("runs");
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!(
                g.bit_eq(w),
                "{src}\n{engine:?} at {threads} threads: {g:?} vs interpreter {w:?}"
            );
        }
        let b = combined_bytes(&perf);
        assert_eq!(*bytes.get_or_insert_with(|| b.clone()), b);
    }
    bytes.expect("at least one configuration")
}

/// [`runs_bit_identical`] against the interpreter; returns its outputs
/// and the combines' partial bytes.
fn matches_interpreter(src: &str, args: &[Value]) -> (Vec<Value>, Vec<u64>) {
    let want = futhark::interpret(src, args).expect("interprets");
    let bytes = runs_bit_identical(src, args, &want);
    (want, bytes)
}

/// Magnitudes from 1e-3 to 1e7 with alternating signs: rounding makes the
/// f32 sum depend on the order of the additions.
fn order_sensitive(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed;
    (0..n)
        .map(|i| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let mag = 10f32.powi((s >> 33) as i32 % 11 - 3);
            let frac = 1.0 + ((s >> 40) % 1000) as f32 / 997.0;
            if i % 2 == 0 {
                mag * frac
            } else {
                -mag * frac * 0.75
            }
        })
        .collect()
}

#[test]
fn f32_sum_folds_partials_in_interpreter_order() {
    // At n <= 15360 every GTX 780 thread gets one element, so the whole
    // sum happens in the combine: any other order of folding the
    // partials would round differently.
    const SRC: &str = "fun main (n: i64) (xs: [n]f32): f32 = reduce (+) 0.0f32 xs";
    let n = 3000;
    let xs = order_sensitive(n, 7);
    let forward = xs.iter().fold(0.0f32, |a, &x| a + x);
    let backward = xs.iter().rev().fold(0.0f32, |a, &x| a + x);
    assert_ne!(
        forward.to_bits(),
        backward.to_bits(),
        "data must be order-sensitive"
    );
    let args = [Value::i64(n as i64), Value::Array(ArrayVal::from_f32s(xs))];
    let (want, bytes) = matches_interpreter(SRC, &args);
    assert_eq!(bytes, vec![4 * n as u64]);
    assert!(
        want[0].bit_eq(&Value::f32(forward)),
        "{want:?} vs {forward}"
    );
}

#[test]
fn argmin_with_tied_minima_keeps_the_lowest_index() {
    // NN's operator: on a tie the left operand wins, so folding left to
    // right keeps the lowest index among the tied minima.
    const SRC: &str = "\
fun main (n: i64) (ds: [n]f32): (f32, i64) =
  let is = iota n
  in reduce (\\(av: f32) (ai: i64) (bv: f32) (bi: i64) ->
      if bv < av then (bv, bi) else (av, ai)) (100000000.0f32, 0) ds is";
    let inputs = |n: usize| {
        let mut ds: Vec<f32> = (0..n).map(|i| 2.0 + (i * 37 % 101) as f32).collect();
        for i in [n - 1, n / 2, 37, 1000, n / 3] {
            ds[i] = 1.5;
        }
        [Value::i64(n as i64), Value::Array(ArrayVal::from_f32s(ds))]
    };
    let want = [Value::f32(1.5), Value::i64(37)];
    // One element per thread: the tied minima sit in different partials.
    let (got, _) = matches_interpreter(SRC, &inputs(3000));
    assert_eq!(got, want);
    // Several elements per thread (n above the GTX 780's 15360-thread
    // stream cap). The interpreter's answer is the same, by the argument
    // above; it is not recomputed here because the interpreter's fold
    // copies its environment per element, which is quadratic in n.
    runs_bit_identical(SRC, &inputs(40000), &want);
}

#[test]
fn kmeans_array_accumulators_fold_row_wise() {
    // K-means' two stream_reds: per-cluster counts ([k]i64) and
    // per-cluster coordinate sums ([k][d]f32), combined with map (+).
    const SRC: &str = "\
fun main (n: i64) (k: i64) (d: i64) (points: [n][d]f32) (membership: [n]i64): ([k]i64, [k][d]f32) =
  let zeros = replicate k 0
  let counts = stream_red (\\(x: [k]i64) (y: [k]i64) -> map (+) x y)
    (\\(chunk: i64) (acc: [k]i64) (cs: [chunk]i64) ->
      loop (a = acc) for ii < chunk do (
        let cl = cs[ii]
        let old = a[cl]
        in a with [cl] <- old + 1))
    zeros membership
  let zrow = replicate d 0.0f32
  let zsum = replicate k zrow
  let sums = stream_red
    (\\(x: [k][d]f32) (y: [k][d]f32) ->
      map (\\(xr: [d]f32) (yr: [d]f32) -> map (+) xr yr) x y)
    (\\(chunk: i64) (acc: [k][d]f32) (ps: [chunk][d]f32) (ms: [chunk]i64) ->
      loop (a = acc) for ii < chunk do (
        let m = ms[ii]
        let row = a[m]
        let p2 = ps[ii]
        let newrow = map (+) row p2
        in a with [m] <- newrow))
    zsum points membership
  in (counts, sums)";
    let (k, d) = (5usize, 3usize);
    // At n = 400 each thread folds one point, so the order-sensitive f32
    // sums are formed entirely by the combine. At n = 2000 each partial
    // covers a chunk, which reassociates the sum; small integers keep
    // those sums exact.
    for n in [400usize, 2000] {
        let points = if n == 400 {
            order_sensitive(n * d, 11)
        } else {
            (0..n * d).map(|i| (i % 17) as f32 - 8.0).collect()
        };
        let membership: Vec<i64> = (0..n).map(|i| ((i * 7 + i / 3) % k) as i64).collect();
        let args = [
            Value::i64(n as i64),
            Value::i64(k as i64),
            Value::i64(d as i64),
            Value::Array(ArrayVal::new(vec![n, d], Buffer::F32(points))),
            Value::Array(ArrayVal::from_i64s(membership)),
        ];
        let (_, bytes) = matches_interpreter(SRC, &args);
        assert_eq!(bytes.len(), 2, "both stream_reds combine on the device");
        if n == 400 {
            assert_eq!(bytes, vec![(n * k * 8) as u64, (n * k * d * 4) as u64]);
        }
    }
}

#[test]
fn faulting_combine_operator_is_the_same_run_error_on_both_engines() {
    // Floored division is not associative: each thread folds its single
    // element to 1 / 2 = 0, and the combine then divides by that zero
    // partial.
    const SRC: &str =
        "fun main (n: i64) (xs: [n]i64): i64 = reduce (\\(a: i64) (b: i64) -> a / b) 1 xs";
    let n = 100;
    let args = [
        Value::i64(n),
        Value::Array(ArrayVal::from_i64s(vec![2; n as usize])),
    ];
    let c = Compiler::new().compile(SRC).expect("compiles");
    let mut first: Option<String> = None;
    for (engine, threads) in CONFIGS {
        let err = match run(&c, &args, engine, threads) {
            Err(Error::Exec(e)) => format!("{e:?}"),
            other => panic!("{engine:?} at {threads} threads: expected a run error, got {other:?}"),
        };
        assert!(err.contains("division by zero"), "{err}");
        assert_eq!(first.get_or_insert_with(|| err.clone()), &err);
    }
}
