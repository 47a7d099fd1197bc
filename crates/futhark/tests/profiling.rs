//! Source-level performance attribution, end to end: provenance
//! preservation through the optimising pipeline, per-site profiled
//! execution, the annotated/diff/Chrome renderers, and the JSON
//! round-trips the archival formats rely on.

use futhark::{
    prof, Compiled, Compiler, Device, Json, PerfReport, RunOptions, Schedule, SiteStats,
};
use futhark_core::{ArrayVal, Buffer, Value};
use futhark_gpu::kernel::KStm;
use futhark_gpu::KernelStats;
use std::collections::BTreeMap;

fn compile(src: &str, sched: Schedule) -> Compiled {
    Compiler::with_schedule(sched)
        .with_trace()
        .compile(src)
        .expect("compiles")
}

/// Runs `c` on the GTX 780 profile with per-site profiling on.
fn profiled_run(c: &Compiled, args: &[Value]) -> Result<(Vec<Value>, PerfReport), futhark::Error> {
    let opts = RunOptions {
        profile: true,
        ..RunOptions::default()
    };
    c.run_with_opts(Device::Gtx780, args, opts)
}

// ---- provenance preservation ----

/// Walks a kernel body checking that every executable statement sits
/// inside some `KStm::At` marker whose provenance set is non-empty.
fn check_covered(kernel: &futhark_gpu::kernel::Kernel, stms: &[KStm], covered: bool) {
    for s in stms {
        match s {
            KStm::At { prov, body } => {
                let p = &kernel.prov_table[*prov as usize];
                check_covered(kernel, body, covered || !p.is_empty());
            }
            KStm::For { body, .. } | KStm::While { body, .. } => {
                assert!(
                    covered,
                    "{}: loop outside any provenance marker",
                    kernel.name
                );
                check_covered(kernel, body, covered);
            }
            KStm::If { then_s, else_s, .. } => {
                assert!(
                    covered,
                    "{}: branch outside any provenance marker",
                    kernel.name
                );
                check_covered(kernel, then_s, covered);
                check_covered(kernel, else_s, covered);
            }
            other => assert!(
                covered,
                "{}: statement outside any provenance marker: {other:?}",
                kernel.name
            ),
        }
    }
}

#[test]
fn every_kernel_opcode_carries_provenance_after_full_optimisation() {
    // Programs spanning the kernelisable subset: map nests, reductions,
    // scans, scatter, tiling candidates, sequential loops in kernels.
    let programs = [
        "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
         let a = map (\\x -> x + 1.0f32) xs\n\
         let b = map (\\x -> x * 2.0f32) a\n\
         in b",
        "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
         let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
         in sums",
        "fun main (n: i64) (xs: [n]i64): i64 =\n\
         let s = reduce (+) 0 xs\n\
         in s",
        "fun main (k: i64) (n: i64) (dest: *[k]i64) (is: [n]i64) (vs: [n]i64): *[k]i64 =\n\
         let r = scatter dest is vs\n\
         in r",
        "fun main (n: i64) (k: i64) (xs: [n]f32) (ws: [k]f32): [n]f32 =\n\
         let out = map (\\(x: f32) ->\n\
           loop (acc = 0.0f32) for j < k do (\n\
             let w = ws[j]\n\
             in acc + w * x)) xs\n\
         in out",
    ];
    for src in programs {
        let c = compile(src, Schedule::default());
        assert!(c.plan.kernel_count() > 0, "expected kernels for {src:?}");
        for k in &c.plan.kernels {
            check_covered(k, &k.body, false);
        }
    }
}

#[test]
fn map_map_fusion_unions_the_two_source_sites() {
    // The producer on line 2 and the consumer on line 3 fuse vertically;
    // the fused statement's provenance must be the union {2, 3}, not
    // either line alone.
    let src = "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
               let a = map (\\x -> x + 1.0f32) xs\n\
               let b = map (\\x -> x * 2.0f32) a\n\
               in b";
    let c = compile(src, Schedule::default());
    assert!(
        c.report()
            .map(|r| r.counter("fusion.vertical"))
            .unwrap_or(0)
            > 0,
        "the two maps must fuse"
    );
    let fused = c.plan.kernels.iter().any(|k| {
        k.prov_table
            .iter()
            .any(|p| p.lines().contains(&2) && p.lines().contains(&3))
    });
    assert!(fused, "no kernel site carries the union of lines 2 and 3");
}

// ---- per-site attribution of coalescing (the ISSUE acceptance case) ----

fn site_tx_for_line(per_site: &BTreeMap<String, SiteStats>, line: u32) -> u64 {
    per_site
        .iter()
        .filter(|(k, _)| {
            k.split(',')
                .filter_map(|p| p.parse::<u32>().ok())
                .any(|l| l == line)
        })
        .map(|(_, s)| s.global_transactions)
        .sum()
}

fn total_tx(per_site: &BTreeMap<String, SiteStats>) -> u64 {
    per_site.values().map(|s| s.global_transactions).sum()
}

#[test]
fn annotate_attributes_uncoalesced_traffic_to_the_offending_line() {
    // Each thread walks one row of `xss` sequentially (line 2). Without
    // coalescing-by-transposition, consecutive threads read addresses a
    // full row apart, so nearly every global transaction in the run is
    // issued by line 2.
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
               let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               in sums";
    let (n, m) = (256i64, 64i64);
    let args = vec![
        Value::i64(n),
        Value::i64(m),
        Value::Array(ArrayVal::new(
            vec![n as usize, m as usize],
            Buffer::F32((0..n * m).map(|i| (i % 7) as f32).collect()),
        )),
    ];
    let uncoalesced = compile(src, Schedule::without(&["coalescing"]));
    let (vals_u, perf_u) = profiled_run(&uncoalesced, &args).expect("uncoalesced run");
    let coalesced = compile(src, Schedule::default());
    let (vals_c, perf_c) = profiled_run(&coalesced, &args).expect("coalesced run");
    assert_eq!(vals_u, vals_c, "coalescing must not change results");

    let total_u = total_tx(&perf_u.per_site);
    let line2_u = site_tx_for_line(&perf_u.per_site, 2);
    assert!(
        line2_u as f64 >= 0.9 * total_u as f64,
        "uncoalesced: line 2 carries {line2_u} of {total_u} transactions (< 90%)"
    );

    // The acceptance bound is *delta-based*: the same-run share cannot
    // drop below 10% (line 2 still performs every read, just coalesced),
    // so the criterion compares the coalesced run's line-2 traffic
    // against the UNCOALESCED run's total — transposition must eliminate
    // more than 90% of the original transaction volume at that site.
    let line2_c = site_tx_for_line(&perf_c.per_site, 2);
    assert!(
        (line2_c as f64) < 0.1 * total_u as f64,
        "coalesced: line 2 still issues {line2_c} transactions \
         (>= 10% of the uncoalesced total {total_u})"
    );

    // prof::diff over the two archived traces reports the per-site delta.
    let old = prof::trace_json(uncoalesced.report(), &perf_u);
    let new = prof::trace_json(coalesced.report(), &perf_c);
    let d = prof::diff_traces(&old, &new).expect("traces parse");
    assert!(!d.is_clean(), "coalescing must show up in the diff");
    let line2_delta = d.per_site.iter().find(|(k, _)| {
        k.split(',')
            .filter_map(|p| p.parse::<u32>().ok())
            .any(|l| l == 2)
    });
    let (_, (o, nw)) = line2_delta.expect("diff lists the offending line");
    let (o, nw) = (
        o.map(|s| s.global_transactions).unwrap_or(0),
        nw.map(|s| s.global_transactions).unwrap_or(0),
    );
    assert!(o > nw, "diff must report the drop at line 2 ({o} -> {nw})");

    // The annotated listing renders the dominant line with its share.
    let listing = prof::render_annotated(src, &perf_u);
    let line2_row = listing
        .lines()
        .find(|l| l.contains("let sums"))
        .expect("line 2 in the listing");
    assert!(
        line2_row.contains('%'),
        "annotated line 2 must carry shares: {line2_row}"
    );
}

// ---- non-perturbation and determinism ----

#[test]
fn profiled_execution_is_a_pure_observer() {
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
               let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               in sums";
    let args = vec![
        Value::i64(32),
        Value::i64(16),
        Value::Array(ArrayVal::new(
            vec![32, 16],
            Buffer::F32((0..512).map(|i| i as f32).collect()),
        )),
    ];
    let c = compile(src, Schedule::default());
    let (plain_vals, plain) = c
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .expect("plain run");
    let (prof_vals, profiled) = profiled_run(&c, &args).expect("profiled run");
    assert_eq!(plain_vals, prof_vals);
    assert_eq!(plain.stats, profiled.stats, "aggregate counters unchanged");
    assert_eq!(plain.launches, profiled.launches);
    assert_eq!(plain.per_kernel, profiled.per_kernel);
    assert!(plain.per_site.is_empty(), "plain runs carry no site stats");
    assert!(!profiled.per_site.is_empty());
    // Site counters decompose the aggregates: summed across sites they
    // reproduce the whole-run transaction and byte counts exactly.
    let sum_tx: u64 = profiled
        .per_site
        .values()
        .map(|s| s.global_transactions)
        .sum();
    let sum_bus: u64 = profiled.per_site.values().map(|s| s.bus_bytes).sum();
    assert_eq!(sum_tx, profiled.stats.global_transactions);
    assert_eq!(sum_bus, profiled.stats.bus_bytes);
}

#[test]
fn profiled_runs_are_deterministic_across_repeats() {
    // The prof-gate contract: the deterministic execution shape must
    // reproduce bit-for-bit on repeated clean runs, and an ablated
    // pipeline (fusion off) must drift with a per-kernel diff.
    let src = "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
               let a = map (\\x -> x + 1.0f32) xs\n\
               let b = map (\\x -> x * 2.0f32) a\n\
               in b";
    let args = vec![
        Value::i64(1024),
        Value::Array(ArrayVal::from_f32s((0..1024).map(|i| i as f32).collect())),
    ];
    let run = |sched: Schedule| -> futhark::PerfReport {
        let c = compile(src, sched);
        profiled_run(&c, &args).expect("runs").1
    };
    let a = run(Schedule::default());
    let b = run(Schedule::default());
    assert_eq!(a.launches, b.launches);
    assert_eq!(a.per_kernel, b.per_kernel);
    assert_eq!(a.per_site, b.per_site);
    assert!(prof::diff_runs(&a, &b).is_clean());
    let nofuse = run(Schedule::without(&["fusion"]));
    let d = prof::diff_runs(&a, &nofuse);
    assert!(!d.is_clean(), "fusion off must drift");
    assert!(
        !d.per_kernel.is_empty(),
        "drift must carry a per-kernel diff"
    );
}

// ---- the Chrome trace exporter ----

#[test]
fn chrome_trace_covers_the_whole_timeline() {
    let src = "fun main (n: i64) (xs: [n]f32): [n]f32 =\n\
               let a = map (\\x -> x + 1.0f32) xs\n\
               in a";
    let args = vec![
        Value::i64(256),
        Value::Array(ArrayVal::from_f32s(vec![1.0; 256])),
    ];
    let c = compile(src, Schedule::default());
    let (_, perf) = c
        .run_with_opts(Device::Gtx780, &args, RunOptions::default())
        .expect("runs");
    let doc = prof::chrome_trace(c.report(), &perf);
    assert_eq!(doc.get("displayTimeUnit").unwrap().as_str(), Some("ms"));
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    let complete: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .collect();
    let n_passes = c.report().map(|r| r.passes.len()).unwrap_or(0);
    let n_mem = perf.mem_events().count();
    assert_eq!(
        complete.len(),
        n_passes + perf.timeline.len() - n_mem,
        "one complete event per pass and per non-memory timeline entry"
    );
    // Memory events become counter samples on the live-bytes track.
    let counters: Vec<&Json> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("C"))
        .collect();
    assert_eq!(counters.len(), n_mem, "one counter sample per memory event");
    assert!(n_mem > 0, "the run allocates, so the track is non-empty");
    // Device-lane durations sum to the modelled total.
    let device_us: f64 = complete
        .iter()
        .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(2))
        .map(|e| e.get("dur").and_then(Json::as_f64).unwrap())
        .sum();
    assert!((device_us - perf.total_us).abs() < 1e-6);
    // The document parses back from its rendered text.
    let parsed = Json::parse(&doc.render()).expect("valid JSON");
    assert_eq!(parsed, doc);
}

// ---- JSON round-trips (identity + malformed rejection) ----

#[test]
fn stats_json_round_trips_and_rejects_malformed() {
    let ks = KernelStats {
        threads: 7,
        warp_instructions: 11,
        global_transactions: 13,
        bus_bytes: 17,
        useful_bytes: 19,
        local_accesses: 23,
        barriers: 29,
    };
    let text = ks.to_json().render_pretty();
    assert_eq!(
        KernelStats::from_json(&Json::parse(&text).unwrap()),
        Some(ks)
    );
    let ss = SiteStats {
        warp_instructions: 3,
        inactive_lane_instructions: 5,
        global_transactions: 7,
        bus_bytes: 11,
        useful_bytes: 13,
        local_accesses: 17,
        barriers: 19,
        modelled_us: 0.5,
    };
    let text = ss.to_json().render();
    assert_eq!(SiteStats::from_json(&Json::parse(&text).unwrap()), Some(ss));
    // Malformed: wrong shape, missing field, wrong field type.
    assert_eq!(KernelStats::from_json(&Json::Arr(vec![])), None);
    assert_eq!(SiteStats::from_json(&Json::U64(3)), None);
    let mut fields = match ks.to_json() {
        Json::Obj(f) => f,
        _ => unreachable!(),
    };
    fields.retain(|(k, _)| k != "threads");
    assert_eq!(KernelStats::from_json(&Json::Obj(fields.clone())), None);
    fields.push(("threads".to_string(), Json::Str("many".to_string())));
    assert_eq!(KernelStats::from_json(&Json::Obj(fields)), None);
}

#[test]
fn counters_json_round_trips_and_rejects_malformed() {
    let mut c = futhark::Counters::new();
    c.add("fusion.vertical", 3);
    c.add("simplify.hoisted", 1);
    let text = c.to_json().render();
    assert_eq!(
        futhark::Counters::from_json(&Json::parse(&text).unwrap()),
        Some(c)
    );
    assert_eq!(futhark::Counters::from_json(&Json::Arr(vec![])), None);
    assert_eq!(
        futhark::Counters::from_json(&Json::obj(vec![(
            "x",
            Json::Str("not a count".to_string())
        )])),
        None
    );
}

#[test]
fn full_trace_document_round_trips_through_text() {
    let src = "fun main (n: i64) (m: i64) (xss: [n][m]f32): [n]f32 =\n\
               let sums = map (\\(row: [m]f32) -> reduce (+) 0.0f32 row) xss\n\
               in sums";
    let args = vec![
        Value::i64(16),
        Value::i64(8),
        Value::Array(ArrayVal::new(
            vec![16, 8],
            Buffer::F32((0..128).map(|i| i as f32).collect()),
        )),
    ];
    let c = compile(src, Schedule::default());
    let (_, perf) = profiled_run(&c, &args).expect("runs");
    assert!(!perf.per_site.is_empty(), "profiled run populates per_site");
    let text = prof::trace_json(c.report(), &perf).render_pretty();
    let (compile_back, run_back) =
        prof::trace_from_json(&Json::parse(&text).expect("parses")).expect("decodes");
    assert_eq!(compile_back.as_ref(), c.report());
    assert_eq!(
        run_back, perf,
        "PerfReport (incl. per_site) text round-trip"
    );
    // Malformed trace documents are rejected, not mis-parsed.
    assert!(prof::trace_from_json(&Json::U64(3)).is_none());
    assert!(prof::trace_from_json(&Json::obj(vec![("compile", Json::Null)])).is_none());
    assert!(futhark::CompileReport::from_json(&Json::obj(vec![(
        "passes",
        Json::Str("nope".to_string())
    )]))
    .is_none());
    assert!(futhark::PerfReport::from_json(&Json::Null).is_none());
}
