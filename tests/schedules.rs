//! Schedule and autotuner integration tests.
//!
//! Pins the contract of the schedule-driven pipeline end to end: the
//! default schedule reproduces the classic pipeline exactly, the tuner
//! is deterministic and monotone, a tuned schedule beats the default by
//! a double-digit margin on a named paper benchmark without changing a
//! single output bit, and the schedules committed under `schedules/`
//! replay bit-for-bit.

use futhark::{schedule_from_json, Compiler, Device, Json, RunOptions, Schedule};
use futhark_bench::benchmark;
use futhark_tune::{evaluate, tune, TuneConfig};

/// The default schedule must compile to the very same artifact as the
/// classic option-driven pipeline: same outputs, same deterministic cost
/// counters.
#[test]
fn default_schedule_matches_classic_pipeline() {
    let b = benchmark("Backprop").expect("known benchmark");
    let classic = Compiler::new().compile(&b.source).expect("classic");
    let scheduled = Compiler::with_schedule(Schedule::default())
        .compile(&b.source)
        .expect("scheduled");
    let opts = RunOptions::default();
    let (vc, pc) = classic
        .run_with_opts(Device::Gtx780, &b.small_args, opts)
        .expect("run");
    let (vs, ps) = scheduled
        .run_with_opts(Device::Gtx780, &b.small_args, opts)
        .expect("run");
    assert_eq!(vc.len(), vs.len());
    for (a, b) in vc.iter().zip(&vs) {
        assert!(a.bit_eq(b), "default schedule changed an output");
    }
    assert_eq!(pc.total_us, ps.total_us);
    assert_eq!(pc.launches, ps.launches);
    assert_eq!(pc.stats, ps.stats);
}

/// Same seed, same program, same arguments: the tuner must return the
/// same schedule, score, and evaluation count.
#[test]
fn tuner_is_deterministic() {
    let b = benchmark("SRAD").expect("known benchmark");
    let cfg = TuneConfig {
        seed: 42,
        rounds: 2,
        site_samples: 4,
        ..TuneConfig::default()
    };
    let x = tune(&b.source, &b.small_args, Device::Gtx780, &cfg).expect("tune");
    let y = tune(&b.source, &b.small_args, Device::Gtx780, &cfg).expect("tune");
    assert_eq!(x.schedule, y.schedule);
    assert_eq!(x.schedule.label(), y.schedule.label());
    assert_eq!(x.score, y.score);
    assert_eq!(x.evaluated, y.evaluated);
}

/// Every accepted hill-climb step strictly improves the lexicographic
/// objective; the final score is never worse than the default's.
#[test]
fn tuner_accepted_steps_are_monotone() {
    let b = benchmark("HotSpot").expect("known benchmark");
    let cfg = TuneConfig {
        seed: 0,
        rounds: 3,
        site_samples: 4,
        ..TuneConfig::default()
    };
    let out = tune(&b.source, &b.small_args, Device::Gtx780, &cfg).expect("tune");
    let mut prev = out.default_score;
    for step in &out.steps {
        assert!(
            step.score.better_than(&prev),
            "accepted step {:?} did not improve on {:?}",
            step,
            prev
        );
        prev = step.score;
    }
    assert!(!out.default_score.better_than(&out.score));
}

/// Acceptance: on HotSpot, the tuned schedule beats the default by at
/// least 10% modelled time with bit-identical outputs.
#[test]
fn tuned_schedule_beats_default_on_hotspot() {
    let b = benchmark("HotSpot").expect("known benchmark");
    let cfg = TuneConfig {
        seed: 0,
        rounds: 2,
        site_samples: 4,
        ..TuneConfig::default()
    };
    let out = tune(&b.source, &b.args, Device::Gtx780, &cfg).expect("tune");
    assert!(
        out.speedup() >= 0.10,
        "expected >= 10% modelled-time win on HotSpot, got {:.1}% \
         (default {:.1} µs, tuned {:.1} µs)",
        out.speedup() * 100.0,
        out.default_score.total_us,
        out.score.total_us
    );
    // Re-evaluate both schedules from scratch and compare outputs bit
    // for bit — the tuner's internal check, repeated externally.
    let opts = RunOptions::default();
    let (dv, ds, _) = evaluate(
        &b.source,
        &b.args,
        Device::Gtx780,
        &Schedule::default(),
        opts,
    )
    .expect("default eval");
    let (tv, ts, _) =
        evaluate(&b.source, &b.args, Device::Gtx780, &out.schedule, opts).expect("tuned eval");
    assert_eq!(dv.len(), tv.len());
    for (a, b) in dv.iter().zip(&tv) {
        assert!(a.bit_eq(b), "tuned schedule changed an output bit");
    }
    assert!(ts.total_us <= ds.total_us * 0.90);
}

/// The schedules committed under `schedules/` replay bit-for-bit: the
/// label still parses, the outputs still match the default schedule's
/// exactly, and the recorded modelled time is reproduced to the bit.
#[test]
fn committed_schedules_replay_bit_for_bit() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../schedules");
    for name in ["HotSpot", "LocVolCalib", "Fluid"] {
        let b = benchmark(name).expect("known benchmark");
        let text = std::fs::read_to_string(format!("{dir}/{name}.json"))
            .unwrap_or_else(|e| panic!("reading committed schedule for {name}: {e}"));
        let doc = Json::parse(&text).expect("committed schedule parses");
        let sched = schedule_from_json(doc.get("schedule").expect("schedule key"))
            .unwrap_or_else(|e| panic!("{name}: committed label rejected: {e}"));
        let recorded_us = doc
            .get("tuned_score")
            .and_then(|s| s.get("total_us"))
            .and_then(Json::as_f64)
            .expect("recorded tuned total_us");
        let opts = RunOptions::default();
        let (dv, ds, _) = evaluate(
            &b.source,
            &b.args,
            Device::Gtx780,
            &Schedule::default(),
            opts,
        )
        .expect("default eval");
        let (tv, ts, _) =
            evaluate(&b.source, &b.args, Device::Gtx780, &sched, opts).expect("tuned eval");
        assert_eq!(dv.len(), tv.len(), "{name}: arity changed");
        for (a, b) in dv.iter().zip(&tv) {
            assert!(a.bit_eq(b), "{name}: tuned output differs from default");
        }
        assert_eq!(
            ts.total_us, recorded_us,
            "{name}: committed modelled time drifted"
        );
        assert!(
            ts.total_us <= ds.total_us * 0.90,
            "{name}: committed schedule no longer a >=10% win \
             (default {} µs, tuned {} µs)",
            ds.total_us,
            ts.total_us
        );
    }
}
