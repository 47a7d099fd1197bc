//! Differential fuzzing CLI: generate random programs, run each through
//! the reference interpreter and the compiled simulator on both device
//! profiles under the ablation matrix, and report any divergence as a
//! shrunk reproducer.
//!
//! Usage: fuzz [--seed N] [--cases N] [--max-size N] [--strategy S]
//!             [--schedules N] [--corpus DIR] [--json]
//!
//! `--strategy` picks the generator's stage menu: `full` (default, the
//! whole surface), `chains` (unary map/scan chains), or `divergent`
//! (control-flow-heavy programs — nested parity branches and loops with
//! data-dependent trip counts — stressing the warp execution engine).
//! `--schedules N` additionally compiles each case under N random valid
//! schedules (seeded per case, so failures replay) and runs each on both
//! devices against the interpreter; default 2, 0 disables the stage.
//!
//! Exits 0 when every case is clean, 1 when any case diverged (or the
//! reference interpreter itself failed). Shrunk reproducers are written
//! to the corpus directory (default `tests/corpus/` when it exists) as
//! self-contained fixtures that `cargo test` replays.

use futhark_fuzz::{CampaignConfig, Outcome, Strategy};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--cases N] [--max-size N] \
         [--strategy full|chains|divergent] [--schedules N] [--corpus DIR] [--json]"
    );
    std::process::exit(2)
}

fn main() {
    let mut cfg = CampaignConfig {
        seed: 1,
        cases: 100,
        run: futhark_bench::run_options_from_env(),
        ..CampaignConfig::default()
    };
    let mut json = false;
    let mut corpus: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut num = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("fuzz: {what} needs a number");
                usage()
            })
        };
        match arg.as_str() {
            "--seed" => cfg.seed = num("--seed"),
            "--cases" => cfg.cases = num("--cases"),
            "--max-size" => cfg.gen.max_size = num("--max-size").max(1) as usize,
            "--strategy" => {
                cfg.gen.strategy = match args.next().as_deref() {
                    Some("full") => Strategy::Full,
                    Some("chains") => Strategy::Chains,
                    Some("divergent") => Strategy::Divergent,
                    other => {
                        eprintln!("fuzz: unknown strategy {other:?}");
                        usage()
                    }
                }
            }
            "--schedules" => cfg.schedules = num("--schedules") as u32,
            "--corpus" => corpus = args.next().map(PathBuf::from),
            "--json" => json = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("fuzz: unknown flag {other}");
                usage()
            }
        }
    }
    cfg.corpus_dir = corpus.or_else(|| {
        let default = PathBuf::from("tests/corpus");
        default.is_dir().then_some(default)
    });

    if !json {
        println!(
            "fuzzing: seed {}, {} cases, max size {} (interpreter vs simulator, \
             7 configs + {} random schedules x 2 devices)",
            cfg.seed, cfg.cases, cfg.gen.max_size, cfg.schedules
        );
    }
    let report = futhark_fuzz::run_campaign(&cfg, &mut |i, outcome| {
        if json {
            return;
        }
        match outcome {
            Outcome::Clean => {
                if (i + 1) % 25 == 0 {
                    println!("  {} cases checked", i + 1);
                }
            }
            failing => println!(
                "  case {i} FAILED: {}",
                failing.describe().unwrap_or_default()
            ),
        }
    });

    if json {
        println!("{}", report.to_json().render_pretty());
    } else {
        println!(
            "done: {}/{} clean, {} divergent",
            report.clean,
            report.cases,
            report.failures.len()
        );
        for f in &report.failures {
            println!(
                "\ncase {} (seed {}): {}",
                f.index, f.case_seed, f.divergence
            );
            println!(
                "  shrunk {} -> {} stages: {}",
                f.stages_before, f.stages_after, f.shrunk_divergence
            );
            if let Some(p) = &f.fixture {
                println!("  reproducer: {}", p.display());
            }
            println!("--- shrunk program ---\n{}", f.shrunk.source());
        }
    }
    if !report.failures.is_empty() || report.clean != report.cases {
        std::process::exit(1);
    }
}
