//! simbench — virtual-GPU throughput benchmark.
//!
//! Measures how fast the *simulator itself* runs on the host (launches/sec
//! and lanes/sec), on a small zoo of representative kernels: a coalesced
//! vector add, a strided (uncoalesced) variant, a local-memory rotate with
//! a barrier, a divergent branch, and a sequential per-thread loop. Each
//! kernel runs three configurations: the per-lane reference engine
//! (sequential), the warp engine (sequential), and the warp engine with
//! parallel work-group execution — and all three must produce bit-identical
//! [`KernelStats`], so every simbench run doubles as a warp-vs-lane
//! differential check. Results go to `BENCH_sim.json` so the simulator's
//! own performance trajectory is tracked alongside the modelled-device
//! numbers.
//!
//! Each row also carries the *modelled* device-side cost of its kernel —
//! the time decomposition (overhead/compute/memory/local µs) and the
//! binding limiter — so the zoo doubles as a fixture for the bottleneck
//! analysis engine: the coalesced add is memory-limited, the strided
//! variant more so, the local rotate stresses local throughput, and the
//! sequential loop is compute-limited.
//!
//! Usage: simbench [--quick] [--launches N] [--threads N] [--out FILE]
//!        simbench --check-schema FILE
//!
//!   --quick       small workload (CI smoke): fewer threads and launches
//!   --launches N  launches per kernel per configuration (default 40)
//!   --threads N   worker threads for the parallel runs (default: all cores)
//!   --out FILE    output path (default BENCH_sim.json)
//!   --check-schema FILE  compare FILE's JSON schema (recursive key set)
//!                 against what simbench writes today; exit 1 on drift

use futhark_core::{BinOp, Buffer, CmpOp, Scalar, ScalarType};
use futhark_gpu::kernel::{KExp, KParam, KStm, Kernel};
use futhark_gpu::sim::{kernel_time_breakdown, Arg, DeviceMemory, KernelStats};
use futhark_gpu::{launch_decoded, DecodedKernel, DeviceProfile, RunOptions, SimEngine};
use futhark_trace::Json;
use std::time::Instant;

/// `a < b` on i64 kernel expressions.
fn lt(a: KExp, b: KExp) -> KExp {
    KExp::Cmp(CmpOp::Lt, Box::new(a), Box::new(b))
}

/// Coalesced vector add: `out[i] = a[i] + b[i]` with a bounds guard.
fn vecadd() -> Kernel {
    Kernel {
        name: "vecadd".into(),
        params: vec![
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::ScalarArg(3)),
            then_s: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::GlobalRead {
                    var: 1,
                    buf: 1,
                    index: KExp::GlobalId,
                },
                KStm::GlobalWrite {
                    buf: 2,
                    index: KExp::GlobalId,
                    value: KExp::BinOp(BinOp::Add, Box::new(KExp::Var(0)), Box::new(KExp::Var(1))),
                },
            ],
            else_s: vec![],
        }],
    }
}

/// Strided (uncoalesced) vector add: lane `i` touches `(i * 17) % n`.
fn vecadd_strided() -> Kernel {
    let idx = || KExp::GlobalId.mul(KExp::i64(17)).rem(KExp::ScalarArg(3));
    Kernel {
        name: "vecadd_strided".into(),
        params: vec![
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::ScalarArg(3)),
            then_s: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: idx(),
                },
                KStm::GlobalRead {
                    var: 1,
                    buf: 1,
                    index: idx(),
                },
                KStm::GlobalWrite {
                    buf: 2,
                    index: idx(),
                    value: KExp::BinOp(BinOp::Add, Box::new(KExp::Var(0)), Box::new(KExp::Var(1))),
                },
            ],
            else_s: vec![],
        }],
    }
}

/// Local-memory rotate: stage a tile in local memory, barrier, read the
/// neighbour's element.
fn local_rotate() -> Kernel {
    Kernel {
        name: "local_rotate".into(),
        params: vec![
            KParam::Buffer(ScalarType::F64),
            KParam::Buffer(ScalarType::F64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![(ScalarType::F64, KExp::GroupSize)],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![
            KStm::If {
                cond: lt(KExp::GlobalId, KExp::ScalarArg(2)),
                then_s: vec![
                    KStm::GlobalRead {
                        var: 0,
                        buf: 0,
                        index: KExp::GlobalId,
                    },
                    KStm::LocalWrite {
                        mem: 0,
                        index: KExp::LocalId,
                        value: KExp::Var(0),
                    },
                ],
                else_s: vec![],
            },
            KStm::Barrier,
            KStm::If {
                cond: lt(KExp::GlobalId, KExp::ScalarArg(2)),
                then_s: vec![
                    KStm::LocalRead {
                        var: 1,
                        mem: 0,
                        index: KExp::LocalId.add(KExp::i64(1)).rem(KExp::GroupSize),
                    },
                    KStm::GlobalWrite {
                        buf: 1,
                        index: KExp::GlobalId,
                        value: KExp::Var(1),
                    },
                ],
                else_s: vec![],
            },
        ],
    }
}

/// Warp-divergent kernel: even lanes run a longer arithmetic chain than
/// odd lanes.
fn divergent() -> Kernel {
    let chain = |n: i64| -> Vec<KStm> {
        let mut s = Vec::new();
        for _ in 0..n {
            s.push(KStm::Assign {
                var: 1,
                exp: KExp::Var(1).mul(KExp::i64(3)).add(KExp::i64(1)),
            });
        }
        s
    };
    Kernel {
        name: "divergent".into(),
        params: vec![
            KParam::Buffer(ScalarType::I64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 2,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::ScalarArg(1)),
            then_s: vec![
                KStm::Assign {
                    var: 1,
                    exp: KExp::GlobalId,
                },
                KStm::If {
                    cond: KExp::Cmp(
                        CmpOp::Eq,
                        Box::new(KExp::GlobalId.rem(KExp::i64(2))),
                        Box::new(KExp::i64(0)),
                    ),
                    then_s: chain(8),
                    else_s: chain(2),
                },
                KStm::GlobalWrite {
                    buf: 0,
                    index: KExp::GlobalId,
                    value: KExp::Var(1),
                },
            ],
            else_s: vec![],
        }],
    }
}

/// Sequential per-thread loop: `out[i] = sum_{j<K} a[i] * j` — stresses
/// the inner interpreter loop rather than memory.
fn seq_loop() -> Kernel {
    Kernel {
        name: "seq_loop".into(),
        params: vec![
            KParam::Buffer(ScalarType::I64),
            KParam::Buffer(ScalarType::I64),
            KParam::Scalar(ScalarType::I64),
        ],
        locals: vec![],
        num_regs: 4,
        num_priv: 0,
        prov_table: vec![],
        body: vec![KStm::If {
            cond: lt(KExp::GlobalId, KExp::ScalarArg(2)),
            then_s: vec![
                KStm::GlobalRead {
                    var: 0,
                    buf: 0,
                    index: KExp::GlobalId,
                },
                KStm::Assign {
                    var: 1,
                    exp: KExp::i64(0),
                },
                KStm::For {
                    var: 2,
                    bound: KExp::i64(32),
                    body: vec![KStm::Assign {
                        var: 1,
                        exp: KExp::Var(1).add(KExp::Var(0).mul(KExp::Var(2))),
                    }],
                },
                KStm::GlobalWrite {
                    buf: 1,
                    index: KExp::GlobalId,
                    value: KExp::Var(1),
                },
            ],
            else_s: vec![],
        }],
    }
}

/// One benchmark case: a kernel plus its launch arguments.
struct Case {
    kernel: Kernel,
    /// Builds (args, fresh memory) for a given element count.
    setup: fn(&mut DeviceMemory, usize) -> Vec<Arg>,
}

fn f64_buf(mem: &mut DeviceMemory, n: usize) -> Arg {
    Arg::Buffer(
        mem.upload(Buffer::F64((0..n).map(|i| i as f64 * 0.5).collect()))
            .expect("in capacity"),
    )
}

fn i64_buf(mem: &mut DeviceMemory, n: usize) -> Arg {
    Arg::Buffer(
        mem.upload(Buffer::I64((0..n as i64).collect()))
            .expect("in capacity"),
    )
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            kernel: vecadd(),
            setup: |mem, n| {
                vec![
                    f64_buf(mem, n),
                    f64_buf(mem, n),
                    Arg::Buffer(mem.alloc(ScalarType::F64, n).expect("in capacity")),
                    Arg::Scalar(Scalar::I64(n as i64)),
                ]
            },
        },
        Case {
            kernel: vecadd_strided(),
            setup: |mem, n| {
                vec![
                    f64_buf(mem, n),
                    f64_buf(mem, n),
                    Arg::Buffer(mem.alloc(ScalarType::F64, n).expect("in capacity")),
                    Arg::Scalar(Scalar::I64(n as i64)),
                ]
            },
        },
        Case {
            kernel: local_rotate(),
            setup: |mem, n| {
                vec![
                    f64_buf(mem, n),
                    Arg::Buffer(mem.alloc(ScalarType::F64, n).expect("in capacity")),
                    Arg::Scalar(Scalar::I64(n as i64)),
                ]
            },
        },
        Case {
            kernel: divergent(),
            setup: |mem, n| {
                vec![
                    Arg::Buffer(mem.alloc(ScalarType::I64, n).expect("in capacity")),
                    Arg::Scalar(Scalar::I64(n as i64)),
                ]
            },
        },
        Case {
            kernel: seq_loop(),
            setup: |mem, n| {
                vec![
                    i64_buf(mem, n),
                    Arg::Buffer(mem.alloc(ScalarType::I64, n).expect("in capacity")),
                    Arg::Scalar(Scalar::I64(n as i64)),
                ]
            },
        },
    ]
}

/// Runs `launches` back-to-back launches with the given worker count and
/// engine and returns (wall seconds, stats of the last launch).
fn run_config(
    device: &DeviceProfile,
    dk: &DecodedKernel,
    n: usize,
    args: &[Arg],
    mem: &mut DeviceMemory,
    launches: u32,
    opts: RunOptions,
) -> (f64, KernelStats) {
    let t0 = Instant::now();
    let mut last = KernelStats::default();
    for _ in 0..launches {
        last = launch_decoded(device, dk, n as u64, args, mem, opts)
            .expect("simbench kernel faulted")
            .stats;
    }
    (t0.elapsed().as_secs_f64(), last)
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let flag = |name: &str| argv.iter().any(|a| a == name);
    let opt = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1).cloned())
    };
    let quick = flag("--quick") || opt("--check-schema").is_some();
    let n: usize = if quick { 1 << 12 } else { 1 << 16 };
    let launches: u32 = opt("--launches")
        .map(|s| s.parse().expect("--launches N"))
        .unwrap_or(if quick { 10 } else { 40 });
    let par_threads: usize = opt("--threads")
        .map(|s| s.parse().expect("--threads N"))
        .unwrap_or_else(|| futhark_bench::run_options_from_env().threads)
        .max(1);
    let seq = |engine| RunOptions {
        threads: 1,
        profile: false,
        engine,
    };
    let par = RunOptions {
        threads: par_threads,
        ..seq(SimEngine::Warp)
    };
    let out_path = opt("--out").unwrap_or_else(|| "BENCH_sim.json".into());
    let device = DeviceProfile::gtx780();

    println!(
        "simbench: {n} lanes x {launches} launches per kernel, parallel = {par_threads} threads"
    );
    println!("{:-<90}", "");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8}  {:>7}",
        "kernel",
        "lane l/s",
        "seq l/s",
        "par l/s",
        "lane Ml/s",
        "seq Ml/s",
        "warp",
        "par",
        "limiter"
    );
    println!("{:-<90}", "");

    let mut rows = Vec::new();
    let mut worst_speedup = f64::INFINITY;
    let mut worst_warp_speedup = f64::INFINITY;
    for case in cases() {
        let dk = DecodedKernel::decode(&case.kernel).expect("decode");
        let mut mem = DeviceMemory::new();
        let args = (case.setup)(&mut mem, n);
        // Warm-up (page in buffers, fill caches).
        let _ = run_config(&device, &dk, n, &args, &mut mem, 1, seq(SimEngine::Warp));
        // The per-lane reference engine, sequential: the "before" of the
        // warp rebuild, re-measured in this very build.
        let (lane_s, lane_stats) = run_config(
            &device,
            &dk,
            n,
            &args,
            &mut mem,
            launches,
            seq(SimEngine::Lane),
        );
        let (seq_s, seq_stats) = run_config(
            &device,
            &dk,
            n,
            &args,
            &mut mem,
            launches,
            seq(SimEngine::Warp),
        );
        let (par_s, par_stats) = run_config(&device, &dk, n, &args, &mut mem, launches, par);
        // The warp-vs-lane differential: one decode driving all lanes must
        // count exactly what per-lane dispatch counted.
        assert_eq!(
            lane_stats, seq_stats,
            "warp stats diverged from the per-lane engine on {}",
            case.kernel.name
        );
        assert_eq!(
            seq_stats, par_stats,
            "parallel stats diverged from sequential on {}",
            case.kernel.name
        );
        let lane_lps = launches as f64 / lane_s;
        let seq_lps = launches as f64 / seq_s;
        let par_lps = launches as f64 / par_s;
        let lane_mlanes = lane_lps * n as f64 / 1e6;
        let seq_mlanes = seq_lps * n as f64 / 1e6;
        let speedup = seq_s / par_s;
        let warp_speedup = lane_s / seq_s;
        worst_speedup = worst_speedup.min(speedup);
        worst_warp_speedup = worst_warp_speedup.min(warp_speedup);
        // Modelled device-side cost of one launch: deterministic, so it
        // belongs in the committed results alongside the host timings.
        let bd = kernel_time_breakdown(&device, &seq_stats);
        println!(
            "{:<16} {:>10.1} {:>10.1} {:>10.1} {:>10.2} {:>10.2} {:>7.2}x {:>7.2}x  {:>7}",
            case.kernel.name,
            lane_lps,
            seq_lps,
            par_lps,
            lane_mlanes,
            seq_mlanes,
            warp_speedup,
            speedup,
            bd.limiter(),
        );
        rows.push(Json::obj(vec![
            ("kernel", Json::Str(case.kernel.name.clone())),
            ("lanes", Json::U64(n as u64)),
            ("launches", Json::U64(launches as u64)),
            ("lane_seconds", Json::F64(lane_s)),
            ("seq_seconds", Json::F64(seq_s)),
            ("par_seconds", Json::F64(par_s)),
            ("lane_launches_per_sec", Json::F64(lane_lps)),
            ("seq_launches_per_sec", Json::F64(seq_lps)),
            ("par_launches_per_sec", Json::F64(par_lps)),
            ("lane_lanes_per_sec", Json::F64(lane_lps * n as f64)),
            ("seq_lanes_per_sec", Json::F64(seq_lps * n as f64)),
            ("par_lanes_per_sec", Json::F64(par_lps * n as f64)),
            ("warp_speedup", Json::F64(warp_speedup)),
            ("speedup", Json::F64(speedup)),
            ("peak_bytes", Json::U64(mem.peak_bytes())),
            ("modelled_us", Json::F64(bd.total_us())),
            ("modelled_breakdown", bd.to_json()),
            ("limiter", Json::Str(bd.limiter().to_string())),
        ]));
    }
    println!("{:-<90}", "");
    println!(
        "worst warp-vs-lane speedup: {worst_warp_speedup:.2}x, \
         worst parallel speedup: {worst_speedup:.2}x"
    );

    let doc = Json::obj(vec![
        ("bench", Json::Str("simbench".into())),
        ("lanes", Json::U64(n as u64)),
        ("launches", Json::U64(launches as u64)),
        ("par_threads", Json::U64(par_threads as u64)),
        ("quick", Json::Str(quick.to_string())),
        ("kernels", Json::Arr(rows)),
        ("worst_warp_speedup", Json::F64(worst_warp_speedup)),
        ("worst_speedup", Json::F64(worst_speedup)),
    ]);
    if let Some(path) = opt("--check-schema") {
        futhark_bench::check_schema(
            &path,
            &doc,
            "simbench",
            "cargo run --release -p futhark-bench --bin simbench",
        );
    }
    match std::fs::write(&out_path, doc.render_pretty()) {
        Ok(()) => println!("results written to {out_path}"),
        Err(e) => {
            eprintln!("writing {out_path}: {e}");
            std::process::exit(1)
        }
    }
}
