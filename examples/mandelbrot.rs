//! Mandelbrot set with a divergent per-pixel while loop, rendered as ASCII.
//!
//!     cargo run --release --example mandelbrot

use futhark::{Compiler, Device, RunOptions};
use futhark_core::Value;

const SRC: &str = "\
fun main (h: i64) (w: i64) (limit: i64): [h][w]i64 =
  let ris = iota h
  let cis = iota w
  let hf = f32 h
  let wf = f32 w
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
  in out";

fn main() -> Result<(), futhark::Error> {
    let (h, w, limit) = (24i64, 64i64, 64i64);
    let compiled = Compiler::new().compile(SRC)?;
    let (out, perf) = compiled.run_with_opts(
        Device::Gtx780,
        &[Value::i64(h), Value::i64(w), Value::i64(limit)],
        RunOptions::default(),
    )?;
    let img = out[0].as_array().expect("image");
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    for r in 0..h {
        let mut line = String::new();
        for c in 0..w {
            let it = img
                .index_scalar(&[r, c])
                .and_then(|s| s.as_i64())
                .unwrap_or(0);
            let shade = (it * (shades.len() as i64 - 1) / limit) as usize;
            line.push(shades[shade.min(shades.len() - 1)]);
        }
        println!("{line}");
    }
    println!("{:.3} simulated ms on GTX 780 Ti", perf.total_ms());
    Ok(())
}
