//! The nine Rodinia benchmarks of Table 1.

use super::{f32_mat, f32s, i, i64_mat_mod, rng};
use crate::{Benchmark, PaperNumbers, Reference, Suite};
use futhark::Schedule;
use futhark_core::Value;

/// All Rodinia benchmarks.
pub fn benchmarks() -> Vec<Benchmark> {
    vec![
        backprop(),
        cfd(),
        hotspot(),
        kmeans(),
        lavamd(),
        myocyte(),
        nn(),
        pathfinder(),
        srad(),
    ]
}

/// Backprop: one forward pass of a fully connected layer. The paper
/// attributes Futhark's speedup to "a reduction that Rodinia has left
/// sequential" — the reference model computes the output-layer reduction
/// with a sequential host loop.
fn backprop() -> Benchmark {
    let source = "\
fun main (ni: i64) (nh: i64) (input: [ni]f32) (w: [nh][ni]f32): (f32, [nh]f32) =
  let hidden = map (\\(ws: [ni]f32) ->
    let prods = map (\\(wv: f32) (iv: f32) -> wv * iv) ws input
    let s = reduce (+) 0.0f32 prods
    let e = exp (0.0f32 - s)
    in 1.0f32 / (1.0f32 + e)) w
  let err = reduce (+) 0.0f32 hidden
  in (err, hidden)"
        .to_string();
    let ref_source = "\
fun main (ni: i64) (nh: i64) (input: [ni]f32) (w: [nh][ni]f32): (f32, [nh]f32) =
  let hidden = map (\\(ws: [ni]f32) ->
    let prods = map (\\(wv: f32) (iv: f32) -> wv * iv) ws input
    let s = reduce (+) 0.0f32 prods
    let e = exp (0.0f32 - s)
    in 1.0f32 / (1.0f32 + e)) w
  let err = loop (acc = 0.0f32) for ii < nh do (
    let h = hidden[ii]
    in acc + h)
  in (err, hidden)"
        .to_string();
    let mk = |ni: usize, nh: usize, seed: u64| -> Vec<Value> {
        let mut r = rng(seed);
        vec![
            i(ni as i64),
            i(nh as i64),
            f32s(&mut r, ni, -1.0, 1.0),
            f32_mat(&mut r, nh, ni, -0.1, 0.1),
        ]
    };
    Benchmark {
        name: "Backprop",
        suite: Suite::Rodinia,
        paper_dataset: "Input layer size equal to 2^20",
        scaled_dataset: "input layer 64, hidden layer 16384".into(),
        args: mk(64, 16384, 11),
        small_args: mk(64, 16, 12),
        source,
        reference: Reference {
            source: Some(ref_source),
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "Rodinia leaves the output-layer reduction sequential (§6.1); \
                   modelled structurally with a host loop",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(46.9),
            nv_fut: 20.7,
            amd_ref: Some(41.5),
            amd_fut: Some(12.9),
        },
    }
}

/// CFD: an Euler-solver step with indirect neighbour gathers, iterated.
fn cfd() -> Benchmark {
    let source = "\
fun main (n: i64) (iters: i64) (density0: [n]f32) (neigh: [n][4]i64): [n]f32 =
  let res = loop (d = density0) for t < iters do (
    let d2 = map (\\(ns: [4]i64) (c: f32) ->
      let n0 = ns[0]
      let n1 = ns[1]
      let n2 = ns[2]
      let n3 = ns[3]
      let flux = (d[n0] + d[n1] + d[n2] + d[n3]) * 0.25f32
      in c + 0.3f32 * (flux - c)) neigh d
    in d2)
  in res"
        .to_string();
    let mk = |n: usize, iters: i64, seed: u64| -> Vec<Value> {
        let mut r = rng(seed);
        vec![
            i(n as i64),
            i(iters),
            f32s(&mut r, n, 0.5, 2.0),
            i64_mat_mod(&mut r, n, 4, n as i64),
        ]
    };
    Benchmark {
        name: "CFD",
        suite: Suite::Rodinia,
        paper_dataset: "fvcorr.domn.193K",
        scaled_dataset: "16384 cells, 20 iterations (scaled ~1/12)".into(),
        args: mk(16384, 20, 21),
        small_args: mk(128, 3, 22),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 0.82,
            adjust_amd: 0.85,
            note: "hand-written reference is slightly faster (paper: 0.84×/0.86× \
                   speedup, i.e. Futhark slower); modelled as ~15-18% better \
                   micro-optimised kernels",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(1878.2),
            nv_fut: 2235.9,
            amd_ref: Some(3610.0),
            amd_fut: Some(4177.5),
        },
    }
}

/// HotSpot: 5-point stencil with a power term, iterated.
fn hotspot() -> Benchmark {
    let source = "\
fun main (r: i64) (c: i64) (iters: i64) (temp: [r][c]f32) (power: [r][c]f32): [r][c]f32 =
  let rows = iota r
  let cols = iota c
  let rm1 = r - 1
  let cm1 = c - 1
  let out = loop (t = temp) for it < iters do (
    let t2 = map (\\(ri: i64) ->
      map (\\(cj: i64) ->
        let im = max (ri - 1) 0
        let ip = min (ri + 1) rm1
        let jm = max (cj - 1) 0
        let jp = min (cj + 1) cm1
        let ct = t[ri, cj]
        let s = t[im, cj] + t[ip, cj] + t[ri, jm] + t[ri, jp]
        let p = power[ri, cj]
        in ct + 0.05f32 * (s - 4.0f32 * ct + p)) cols) rows
    in t2)
  in out"
        .to_string();
    let mk = |r: usize, c: usize, iters: i64, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(r as i64),
            i(c as i64),
            i(iters),
            f32_mat(&mut g, r, c, 20.0, 80.0),
            f32_mat(&mut g, r, c, 0.0, 1.0),
        ]
    };
    Benchmark {
        name: "HotSpot",
        suite: Suite::Rodinia,
        paper_dataset: "1024 × 1024; 360 iterations",
        scaled_dataset: "128 × 128; 30 iterations (scaled 1/64, 1/12)".into(),
        args: mk(128, 128, 30, 31),
        small_args: mk(16, 16, 3, 32),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 0.6,
            adjust_amd: 3.0,
            note: "reference uses time tiling, \"which seems to pay off on the \
                   NVIDIA GPU, but not on AMD\" (§6.1); modelled as 0.6×/3.0× \
                   since hexagonal time tiling is outside our simulator",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(35.9),
            nv_fut: 45.3,
            amd_ref: Some(260.4),
            amd_fut: Some(72.6),
        },
    }
}

/// K-means: membership assignment, cluster counts (Figure 4c), and new
/// cluster centres via an in-place streaming histogram. The reference
/// computes counts and centres sequentially on the host — "Rodinia not
/// parallelizing computation of the new cluster centers" (§6.1).
fn kmeans() -> Benchmark {
    let kernel_part = "\
  let membership = map (\\(p: [d]f32) ->
    let (bv, bi) = loop (bv = 100000000.0f32, bi = 0) for c < k do (
      let dist = loop (s = 0.0f32) for j < d do (
        let df = p[j] - centers[c, j]
        in s + df * df)
      in if dist < bv then (dist, c) else (bv, bi))
    let ignore = bv
    in bi) points";
    let source = format!(
        "\
fun main (n: i64) (k: i64) (d: i64) (points: [n][d]f32) (centers: [k][d]f32): ([n]i64, [k]i64, [k][d]f32) =
{kernel_part}
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
  let newcenters = map (\\(s: [d]f32) (cnt: i64) ->
    let c32 = f32 cnt
    let cc = max c32 1.0f32
    in map (\\v -> v / cc) s) sums counts
  in (membership, counts, newcenters)"
    );
    // Reference: counts and sums on the host (sequential loops).
    let ref_source = format!(
        "\
fun main (n: i64) (k: i64) (d: i64) (points: [n][d]f32) (centers: [k][d]f32): ([n]i64, [k]i64, [k][d]f32) =
{kernel_part}
  let zeros = replicate k 0
  let counts = loop (a = zeros) for ii < n do (
    let cl = membership[ii]
    let old = a[cl]
    in a with [cl] <- old + 1)
  let zrow = replicate d 0.0f32
  let zsum = replicate k zrow
  let sums = loop (a = zsum) for ii < n do (
    let m = membership[ii]
    let a2 = loop (aa = a) for j < d do (
      let cur = aa[m, j]
      let pv = points[ii, j]
      in aa with [m, j] <- cur + pv)
    in a2)
  let newcenters = map (\\(s: [d]f32) (cnt: i64) ->
    let c32 = f32 cnt
    let cc = max c32 1.0f32
    in map (\\v -> v / cc) s) sums counts
  in (membership, counts, newcenters)"
    );
    let mk = |n: usize, k: i64, d: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(n as i64),
            i(k),
            i(d as i64),
            f32_mat(&mut g, n, d, -10.0, 10.0),
            f32_mat(&mut g, k as usize, d, -10.0, 10.0),
        ]
    };
    Benchmark {
        name: "K-means",
        suite: Suite::Rodinia,
        paper_dataset: "kdd_cup",
        scaled_dataset: "16384 points, 16 clusters, 4 dims, one iteration".into(),
        args: mk(16384, 16, 4, 41),
        small_args: mk(128, 4, 2, 42),
        source,
        reference: Reference {
            source: Some(ref_source),
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "Rodinia computes the new cluster centres (a segmented \
                   reduction) on the host (§6.1); modelled structurally with \
                   sequential host loops",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(1597.7),
            nv_fut: 572.2,
            amd_ref: Some(1216.1),
            amd_fut: Some(1534.9),
        },
    }
}

/// LavaMD: particle interactions across neighbouring boxes (indirect
/// indexing two levels deep).
fn lavamd() -> Benchmark {
    let source = "\
fun main (nb: i64) (np: i64) (pos: [nb][np]f32) (neigh: [nb][8]i64): [nb][np]f32 =
  let out = map (\\(ps: [np]f32) (nbs: [8]i64) ->
    map (\\(me: f32) ->
      loop (acc = 0.0f32) for l < 8 do (
        let bx = nbs[l]
        let contrib = loop (s = 0.0f32) for m < np do (
          let other = pos[bx, m]
          let dv = other - me
          let r2 = dv * dv + 0.5f32
          in s + dv / r2)
        in acc + contrib)) ps) pos neigh
  in out"
        .to_string();
    let mk = |nb: usize, np: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(nb as i64),
            i(np as i64),
            f32_mat(&mut g, nb, np, -5.0, 5.0),
            i64_mat_mod(&mut g, nb, 8, nb as i64),
        ]
    };
    Benchmark {
        name: "LavaMD",
        suite: Suite::Rodinia,
        paper_dataset: "boxes1d=10",
        scaled_dataset: "128 boxes × 16 particles, 8 neighbours".into(),
        args: mk(128, 16, 51),
        small_args: mk(8, 4, 52),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 0.65,
            adjust_amd: 1.1,
            note: "hand-written reference is faster on NVIDIA (0.76× speedup) \
                   via manual tiling of the indirectly-indexed boxes, which \
                   our 1-D tiler does not cover; modelled as 0.65×/1.1×",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(5.1),
            nv_fut: 6.7,
            amd_ref: Some(9.0),
            amd_fut: Some(7.1),
        },
    }
}

/// Myocyte: independent ODE integrations with long sequential bodies. The
/// paper attributes Futhark's 4.9× to "automatic coalescing optimizations,
/// which is tedious to do by hand on such large programs" — the reference
/// is the same program compiled without the coalescing transformation.
fn myocyte() -> Benchmark {
    // The ODE body is sequential: each state variable's update depends on
    // its predecessor, so there is no inner parallelism to interchange —
    // the whole integration runs inside one thread, exactly like Rodinia's
    // port (the paper: "its degree of parallelism was one").
    let source = "\
fun main (w: i64) (steps: i64) (init: *[w][16]f32) (params: [w][16]f32): [w][16]f32 =
  let out = map (\\(y0: [16]f32) (pr: [16]f32) ->
    loop (y = y0) for t < steps do (
      loop (yy = y) for j < 16 do (
        let jm = max (j - 1) 0
        let prev = yy[jm]
        let cur = yy[j]
        let p = pr[j]
        in yy with [j] <- cur + 0.01f32 * (p * prev - cur)))) init params
  in out"
        .to_string();
    let mk = |w: usize, steps: i64, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(w as i64),
            i(steps),
            f32_mat(&mut g, w, 16, 0.0, 1.0),
            f32_mat(&mut g, w, 16, 0.0, 2.0),
        ]
    };
    Benchmark {
        name: "Myocyte",
        suite: Suite::Rodinia,
        paper_dataset: "workload=65536, xmax=3",
        scaled_dataset: "2048 workloads × 16 state vars, 100 steps".into(),
        args: mk(2048, 100, 61),
        small_args: mk(32, 5, 62),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::without(&["coalescing"]),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "reference accesses are uncoalesced (§6.1: speedup attributed \
                   to automatic coalescing); modelled by disabling the \
                   coalescing transformation",
        },
        amd_reference: false,
        paper: PaperNumbers {
            nv_ref: Some(2733.6),
            nv_fut: 555.4,
            amd_ref: None,
            amd_fut: Some(2979.8),
        },
    }
}

/// NN: repeated nearest-neighbour queries; each is a distance map plus an
/// (argmin) reduction. The reference leaves "100 reduce operations …
/// sequential on the CPU" (§6.1); the benchmark is dominated by frequent
/// launches of short kernels, which is why the AMD profile (higher launch
/// overhead) shows a smaller speedup.
fn nn() -> Benchmark {
    let body = "\
    let dists = map (\\(la: f32) (lo: f32) ->
      let dx = la - pla
      let dy = lo - plo
      in sqrt (dx * dx + dy * dy)) lat lon";
    let source = format!(
        "\
fun main (n: i64) (q: i64) (lat: [n]f32) (lon: [n]f32) (plats: [q]f32) (plons: [q]f32): ([q]f32, [q]i64) =
  let is = iota n
  let outd0 = replicate q 0.0f32
  let outi0 = replicate q 0
  let (rd, ri) = loop (od = outd0, oi = outi0) for t < q do (
    let pla = plats[t]
    let plo = plons[t]
{body}
    let (md, mi) = reduce (\\(av: f32) (ai: i64) (bv: f32) (bi: i64) ->
      if bv < av then (bv, bi) else (av, ai)) (100000000.0f32, 0) dists is
    let od2 = od with [t] <- md
    let oi2 = oi with [t] <- mi
    in (od2, oi2))
  in (rd, ri)"
    );
    let ref_source = format!(
        "\
fun main (n: i64) (q: i64) (lat: [n]f32) (lon: [n]f32) (plats: [q]f32) (plons: [q]f32): ([q]f32, [q]i64) =
  let outd0 = replicate q 0.0f32
  let outi0 = replicate q 0
  let (rd, ri) = loop (od = outd0, oi = outi0) for t < q do (
    let pla = plats[t]
    let plo = plons[t]
{body}
    let (md, mi) = loop (mv = 100000000.0f32, mi = 0) for j < n do (
      let v = dists[j]
      in if v < mv then (v, j) else (mv, mi))
    let od2 = od with [t] <- md
    let oi2 = oi with [t] <- mi
    in (od2, oi2))
  in (rd, ri)"
    );
    let mk = |n: usize, q: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(n as i64),
            i(q as i64),
            f32s(&mut g, n, -90.0, 90.0),
            f32s(&mut g, n, -180.0, 180.0),
            f32s(&mut g, q, -90.0, 90.0),
            f32s(&mut g, q, -180.0, 180.0),
        ]
    };
    Benchmark {
        name: "NN",
        suite: Suite::Rodinia,
        paper_dataset: "Default Rodinia dataset duplicated 20 times",
        scaled_dataset: "65536 records, 24 queries".into(),
        args: mk(65536, 24, 71),
        small_args: mk(64, 3, 72),
        source,
        reference: Reference {
            source: Some(ref_source),
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "Rodinia leaves the per-query min-reductions sequential on \
                   the CPU (§6.1); modelled structurally with host loops",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(178.9),
            nv_fut: 11.0,
            amd_ref: Some(193.2),
            amd_fut: Some(37.6),
        },
    }
}

/// Pathfinder: dynamic programming over grid rows.
fn pathfinder() -> Benchmark {
    let source = "\
fun main (r: i64) (c: i64) (wall: [r][c]i64): [c]i64 =
  let cols = iota c
  let cm1 = c - 1
  let rm1 = r - 1
  let first = wall[0]
  let res = loop (cur = first) for t < rm1 do (
    let t1 = t + 1
    let nxt = map (\\(j: i64) ->
      let jm = max (j - 1) 0
      let jp = min (j + 1) cm1
      let a = cur[jm]
      let b = cur[j]
      let cc = cur[jp]
      let m = min (min a b) cc
      in m + wall[t1, j]) cols
    in nxt)
  in res"
        .to_string();
    let mk = |r: usize, c: usize, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![i(r as i64), i(c as i64), i64_mat_mod(&mut g, r, c, 10)]
    };
    Benchmark {
        name: "Pathfinder",
        suite: Suite::Rodinia,
        paper_dataset: "Array of size 10^5",
        scaled_dataset: "64 rows × 4096 columns".into(),
        args: mk(64, 4096, 81),
        small_args: mk(6, 32, 82),
        source,
        reference: Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 2.3,
            adjust_amd: 2.6,
            note: "Rodinia uses time tiling, \"which, unlike HotSpot, does not \
                   seem to pay off on the tested hardware\" (§6.1): the tiled \
                   kernel does redundant halo work; modelled as ~2.3-2.6× \
                   extra time",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(18.4),
            nv_fut: 7.4,
            amd_ref: Some(18.2),
            amd_fut: Some(6.5),
        },
    }
}

/// SRAD: speckle-reducing anisotropic diffusion — per iteration a global
/// mean (nested reduction) and a stencil update. The reference computes
/// the global statistics on the host ("some (nested) reduce operators"
/// left unoptimised, §6.1).
fn srad() -> Benchmark {
    let stencil = "\
    let img2 = map (\\(ri: i64) ->
      map (\\(cj: i64) ->
        let im = max (ri - 1) 0
        let ip = min (ri + 1) rm1
        let jm = max (cj - 1) 0
        let jp = min (cj + 1) cm1
        let ct = img[ri, cj]
        let dn = img[im, cj] - ct
        let ds = img[ip, cj] - ct
        let dw = img[ri, jm] - ct
        let de = img[ri, jp] - ct
        let g2 = (dn * dn + ds * ds + dw * dw + de * de) / (ct * ct + 0.01f32)
        let coef = 1.0f32 / (1.0f32 + g2 / (q0 + 0.01f32))
        let cl = max (min coef 1.0f32) 0.0f32
        in ct + 0.05f32 * cl * (dn + ds + dw + de)) cols) rows";
    let source = format!(
        "\
fun main (r: i64) (c: i64) (iters: i64) (img0: [r][c]f32): [r][c]f32 =
  let rows = iota r
  let cols = iota c
  let rm1 = r - 1
  let cm1 = c - 1
  let total32 = f32 (r * c)
  let out = loop (img = img0) for it < iters do (
    let rowsums = map (\\(row: [c]f32) -> reduce (+) 0.0f32 row) img
    let total = reduce (+) 0.0f32 rowsums
    let mean = total / total32
    let q0 = mean * 0.1f32
{stencil}
    in img2)
  in out"
    );
    let ref_source = format!(
        "\
fun main (r: i64) (c: i64) (iters: i64) (img0: [r][c]f32): [r][c]f32 =
  let rows = iota r
  let cols = iota c
  let rm1 = r - 1
  let cm1 = c - 1
  let total32 = f32 (r * c)
  let out = loop (img = img0) for it < iters do (
    let total = loop (acc = 0.0f32) for ri < r do (
      let rowsum = loop (s = 0.0f32) for cj < c do (
        let v = img[ri, cj]
        in s + v)
      in acc + rowsum)
    let mean = total / total32
    let q0 = mean * 0.1f32
{stencil}
    in img2)
  in out"
    );
    let mk = |r: usize, c: usize, iters: i64, seed: u64| -> Vec<Value> {
        let mut g = rng(seed);
        vec![
            i(r as i64),
            i(c as i64),
            i(iters),
            f32_mat(&mut g, r, c, 0.1, 1.0),
        ]
    };
    Benchmark {
        name: "SRAD",
        suite: Suite::Rodinia,
        paper_dataset: "502 × 458; 100 iterations",
        scaled_dataset: "64 × 64; 10 iterations".into(),
        args: mk(64, 64, 10, 91),
        small_args: mk(12, 12, 2, 92),
        source,
        reference: Reference {
            source: Some(ref_source),
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.6,
            note: "reference computes the per-iteration image statistics \
                   sequentially (nested reduces left unoptimised, §6.1); \
                   structural host loops plus a 1.6× AMD factor for its \
                   additional unoptimised kernels",
        },
        amd_reference: true,
        paper: PaperNumbers {
            nv_ref: Some(19.9),
            nv_fut: 16.1,
            amd_ref: Some(195.1),
            amd_fut: Some(34.8),
        },
    }
}
