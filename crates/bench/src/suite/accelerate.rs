//! The four Accelerate benchmarks (Crystal, Fluid, Mandelbrot, N-body).
//! Accelerate is a Haskell DSL whose generated code misses fusion and
//! tiling opportunities; Table 1 has no AMD reference for these (the
//! Accelerate backend used is CUDA-only).

use super::{f32s, i, rng};
use crate::{Benchmark, PaperNumbers, Reference, Suite};
use futhark::Schedule;
use futhark_core::Value;

/// All Accelerate benchmarks.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![crystal(), fluid(), mandelbrot(), nbody()]
}

/// Crystal: quasi-crystal interference patterns — a pixel map summing
/// `deg` plane waves, written as a chain of maps that the fusion engine
/// collapses (the paper measures a 10.1× fusion impact on Crystal).
fn crystal() -> Benchmark {
    let source = "\
fun main (n: i64) (deg: i64) (cosT: [deg]f32) (sinT: [deg]f32) (scale: f32): [n][n]f32 =
  let idxs = iota n
  let nf = f32 n
  let coords = map (\\(ii: i64) -> (f32 ii) / nf * scale) idxs
  let out = map (\\(y: f32) ->
    let row = map (\\(x: f32) ->
      loop (acc = 0.0f32) for d < deg do (
        let ct = cosT[d]
        let st = sinT[d]
        let phase = x * ct + y * st
        in acc + cos (phase * 6.2831f32))) coords
    let sharpened = map (\\v -> v * v) row
    let shifted = map (\\v -> v + 0.5f32) sharpened
    in shifted) coords
  in out"
        .to_string();
    let mk = |n: usize, deg: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(n as i64),
            i(deg as i64),
            f32s(&mut g, deg, -1.0, 1.0),
            f32s(&mut g, deg, -1.0, 1.0),
            Value::f32(4.0),
        ]
    };
    Benchmark {
        name: "Crystal",
        suite: Suite::Accelerate,
        paper_dataset: "Size 2000, degree 50",
        scaled_dataset: "128 × 128 pixels, degree 32".into(),
        args: mk(128, 32, 131),
        small_args: mk(12, 4, 132),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::without(&["fusion"]),
            adjust_nv: 1.4,
            adjust_amd: 1.4,
            note: "Accelerate's generated code is unfused (the paper measures \
                   ×10.1 fusion impact on Crystal); modelled by disabling \
                   fusion plus a 1.4× factor for its extra kernel overheads",
        },
        amd_reference: false,
        paper: PaperNumbers {
            nv_ref: Some(41.0),
            nv_fut: 8.4,
            amd_ref: None,
            amd_fut: Some(8.4),
        },
    }
}

/// Fluid: Jos Stam's stable-fluids solver — iterated Jacobi diffusion with
/// fusable per-cell post-processing.
fn fluid() -> Benchmark {
    let source = "\
fun main (n: i64) (iters: i64) (dens0: [n][n]f32): [n][n]f32 =
  let rows = iota n
  let cols = iota n
  let nm1 = n - 1
  let out = loop (d = dens0) for it < iters do (
    let diffused = map (\\(ri: i64) ->
      map (\\(cj: i64) ->
        let im = max (ri - 1) 0
        let ip = min (ri + 1) nm1
        let jm = max (cj - 1) 0
        let jp = min (cj + 1) nm1
        let s = d[im, cj] + d[ip, cj] + d[ri, jm] + d[ri, jp]
        in (d[ri, cj] + 0.2f32 * s) / 1.8f32) cols) rows
    let damped = map (\\(row: [n]f32) -> map (\\v -> v * 0.999f32) row) diffused
    in damped)
  in out"
        .to_string();
    let mk = |n: usize, iters: i64, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(n as i64),
            i(iters),
            super::f32_mat(&mut g, n, n, 0.0, 1.0),
        ]
    };
    Benchmark {
        name: "Fluid",
        suite: Suite::Accelerate,
        paper_dataset: "3000 × 3000; 20 iterations",
        scaled_dataset: "96 × 96; 16 iterations".into(),
        args: mk(96, 16, 141),
        small_args: mk(12, 2, 142),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::without(&["fusion"]),
            adjust_nv: 1.3,
            adjust_amd: 1.3,
            note: "Accelerate emits one kernel per combinator (unfused) and \
                   pays per-launch overheads; modelled by disabling fusion \
                   plus a 1.3× factor",
        },
        amd_reference: false,
        paper: PaperNumbers {
            nv_ref: Some(268.7),
            nv_fut: 100.4,
            amd_ref: None,
            amd_fut: Some(221.8),
        },
    }
}

/// Mandelbrot: per-pixel escape-time iteration with a divergent while
/// loop. The Accelerate reference runs a *fixed* iteration count per pixel
/// (no early exit), which our reference source mirrors structurally.
fn mandelbrot() -> Benchmark {
    let common_head = "\
fun main (h: i64) (w: i64) (limit: i64): [h][w]i64 =
  let ris = iota h
  let cis = iota w
  let hf = f32 h
  let wf = f32 w";
    let source = format!(
        "\
{common_head}
  let out = map (\\(ri: i64) ->
    map (\\(ci: i64) ->
      let cr = (f32 ci) / wf * 3.0f32 - 2.0f32
      let cim = (f32 ri) / hf * 2.0f32 - 1.0f32
      let (zr, zi, it) = loop (zr = 0.0f32, zi = 0.0f32, it = 0)
        while (zr * zr + zi * zi < 4.0f32) && (it < limit) do (
          let nzr = zr * zr - zi * zi + cr
          let nzi = 2.0f32 * zr * zi + cim
          in (nzr, nzi, it + 1))
      let ignore = zr + zi
      in it) cis) ris
  in out"
    );
    let ref_source = format!(
        "\
{common_head}
  let out = map (\\(ri: i64) ->
    map (\\(ci: i64) ->
      let cr = (f32 ci) / wf * 3.0f32 - 2.0f32
      let cim = (f32 ri) / hf * 2.0f32 - 1.0f32
      let (zr, zi, it) = loop (zr = 0.0f32, zi = 0.0f32, it = 0)
        for k < limit do (
          let esc = zr * zr + zi * zi < 4.0f32
          let nzr = if esc then zr * zr - zi * zi + cr else zr
          let nzi = if esc then 2.0f32 * zr * zi + cim else zi
          let nit = if esc then it + 1 else it
          in (nzr, nzi, nit))
      let ignore = zr + zi
      in it) cis) ris
  in out"
    );
    let mk =
        |h: usize, w: usize, limit: i64| -> Vec<Value> { vec![i(h as i64), i(w as i64), i(limit)] };
    Benchmark {
        name: "Mandelbrot",
        suite: Suite::Accelerate,
        paper_dataset: "4000 × 4000; 255 limit",
        scaled_dataset: "96 × 96; 255 limit".into(),
        args: mk(96, 96, 255),
        small_args: mk(12, 12, 8),
        source,
        reference: Reference {
            source: Some(ref_source),
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "the Accelerate version iterates to the fixed limit with no \
                   early exit (its flat data-parallel model cannot express a \
                   divergent while loop); modelled structurally",
        },
        amd_reference: false,
        paper: PaperNumbers {
            nv_ref: Some(30.8),
            nv_fut: 8.1,
            amd_ref: None,
            amd_fut: Some(14.8),
        },
    }
}

/// N-body: every body folds over every other body — "a width-N map where
/// each element performs a fold over each of the N bodies" (§6.1). The
/// bodies arrays are invariant to the parallel dimension: the 1-D tiling
/// pattern (paper: ×2.29 tiling impact).
fn nbody() -> Benchmark {
    let source = "\
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
  in (axs, ays)"
        .to_string();
    let mk = |n: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(n as i64),
            f32s(&mut g, n, -1.0, 1.0),
            f32s(&mut g, n, -1.0, 1.0),
            f32s(&mut g, n, 0.1, 1.0),
        ]
    };
    Benchmark {
        name: "N-body",
        suite: Suite::Accelerate,
        paper_dataset: "N = 10^5",
        scaled_dataset: "N = 2048".into(),
        args: mk(2048, 151),
        small_args: mk(48, 152),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::without(&["tiling", "fusion"]),
            adjust_nv: 1.8,
            adjust_amd: 1.8,
            note: "Accelerate's code is neither tiled nor fused (the paper \
                   measures ×2.29 tiling impact on N-body); modelled by \
                   disabling both plus a 1.8× factor for its generated-code \
                   overheads",
        },
        amd_reference: false,
        paper: PaperNumbers {
            nv_ref: Some(613.2),
            nv_fut: 89.5,
            amd_ref: None,
            amd_fut: Some(269.8),
        },
    }
}
