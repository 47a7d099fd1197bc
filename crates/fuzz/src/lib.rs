//! `futhark-fuzz`: differential fuzzing for the compiler pipeline.
//!
//! The crate has four parts:
//!
//! - [`gen`] — a seeded, type-directed generator of random source
//!   programs covering the whole frontend surface (all SOACs including
//!   `reduce`/`filter`/`scatter`, sequential loops, branches, 2-D arrays,
//!   in-place updates, nested maps).
//! - [`oracle`] — the differential oracle: each program runs through the
//!   reference interpreter and through the compiled simulator on both
//!   device profiles under an ablation matrix of pipeline configurations,
//!   and every run must agree bit for bit.
//! - [`shrink`] — greedy minimisation of failing cases by stage deletion,
//!   input truncation, and constant simplification.
//! - [`corpus`] — self-contained fixture files for `tests/corpus/`,
//!   replayed by `cargo test`.
//!
//! [`run_campaign`] ties them together; the `fuzz` binary in
//! `futhark-bench` is a thin CLI over it.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use gen::{generate, GenConfig, Strategy, TestCase};
pub use oracle::{
    check_schedules, check_source, check_source_with_schedules, Divergence, DivergenceKind, Outcome,
};
pub use shrink::{shrink, ShrinkStats};

use futhark::RunOptions;
use futhark_trace::Json;
use std::path::{Path, PathBuf};

/// Derives the per-case seed from the campaign seed and the case index
/// (a splitmix64 step, so neighbouring indices give unrelated cases).
pub fn case_seed(campaign_seed: u64, index: u64) -> u64 {
    let mut z = campaign_seed
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add(index.wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Runs the differential oracle on one generated case.
pub fn check_case(case: &TestCase, run: RunOptions) -> Outcome {
    oracle::check_source(&case.source(), &case.args(), run)
}

/// Runs the differential oracle plus `schedules` random-schedule
/// configurations on one generated case, executing with `run`. The
/// schedule PRNG is seeded by `sched_seed` (the per-case seed in a
/// campaign), so failures replay.
pub fn check_case_with_schedules(
    case: &TestCase,
    run: RunOptions,
    sched_seed: u64,
    schedules: u32,
) -> Outcome {
    oracle::check_source_with_schedules(&case.source(), &case.args(), run, sched_seed, schedules)
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; per-case seeds derive from it via [`case_seed`].
    pub seed: u64,
    /// How many cases to generate and check.
    pub cases: u64,
    /// Generator configuration.
    pub gen: GenConfig,
    /// Shrink budget (oracle calls per failing case).
    pub shrink_attempts: usize,
    /// Where to write shrunk reproducers; `None` disables fixtures.
    pub corpus_dir: Option<PathBuf>,
    /// Random valid schedules checked per case (on top of the ablation
    /// matrix), each run on both devices against the interpreter.
    pub schedules: u32,
    /// The session's execution options: host threads and the engine every
    /// configuration runs on (the warp-vs-lane stage checks the other).
    pub run: RunOptions,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            seed: 1,
            cases: 100,
            gen: GenConfig::default(),
            shrink_attempts: 400,
            corpus_dir: None,
            schedules: 2,
            run: RunOptions::default(),
        }
    }
}

/// One failing case, after shrinking.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Case index within the campaign.
    pub index: u64,
    /// The derived per-case seed (replays with `--seed` on a 1-case run).
    pub case_seed: u64,
    /// What diverged (for the original, unshrunk case).
    pub divergence: String,
    /// Stage count before and after shrinking.
    pub stages_before: usize,
    /// Stage count after shrinking.
    pub stages_after: usize,
    /// The shrunk reproducer.
    pub shrunk: TestCase,
    /// What the shrunk reproducer's divergence looks like.
    pub shrunk_divergence: String,
    /// Fixture path, when a corpus directory was given.
    pub fixture: Option<PathBuf>,
}

/// Campaign summary.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Cases checked.
    pub cases: u64,
    /// Cases where every configuration matched the interpreter.
    pub clean: u64,
    /// Shrunk failures.
    pub failures: Vec<Failure>,
}

impl CampaignReport {
    /// Serialises the report (for `fuzz --json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("seed", Json::U64(self.seed)),
            ("cases", Json::U64(self.cases)),
            ("clean", Json::U64(self.clean)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("index", Json::U64(f.index)),
                                ("case_seed", Json::U64(f.case_seed)),
                                ("divergence", Json::Str(f.divergence.clone())),
                                ("stages_before", Json::U64(f.stages_before as u64)),
                                ("stages_after", Json::U64(f.stages_after as u64)),
                                ("shrunk_divergence", Json::Str(f.shrunk_divergence.clone())),
                                (
                                    "fixture",
                                    match &f.fixture {
                                        Some(p) => Json::Str(p.display().to_string()),
                                        None => Json::Null,
                                    },
                                ),
                                ("source", Json::Str(f.shrunk.source())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn write_fixture(dir: &Path, campaign_seed: u64, f: &Failure) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("fuzz_s{}_c{}.fut", campaign_seed, f.index));
    let header = vec![
        format!(
            "futhark-fuzz reproducer: campaign seed {}, case {} (case seed {})",
            campaign_seed, f.index, f.case_seed
        ),
        format!(
            "shrunk from {} stages to {}",
            f.stages_before, f.stages_after
        ),
        format!("divergence: {}", f.shrunk_divergence),
    ];
    let text = corpus::render_fixture(&header, &f.shrunk.args(), &f.shrunk.source());
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Generates, checks, and (on failure) shrinks `cfg.cases` programs.
/// `progress` is called after each case with its index and outcome.
pub fn run_campaign(
    cfg: &CampaignConfig,
    progress: &mut dyn FnMut(u64, &Outcome),
) -> CampaignReport {
    let mut report = CampaignReport {
        seed: cfg.seed,
        cases: cfg.cases,
        clean: 0,
        failures: Vec::new(),
    };
    for i in 0..cfg.cases {
        let cs = case_seed(cfg.seed, i);
        let case = generate(cs, &cfg.gen);
        let outcome = check_case_with_schedules(&case, cfg.run, cs, cfg.schedules);
        progress(i, &outcome);
        match &outcome {
            Outcome::Clean => report.clean += 1,
            failing => {
                let divergence = failing.describe().unwrap_or_default();
                // Shrink against the same schedule stage (same seed and
                // count), so schedule-induced failures stay reproducible
                // while shrinking.
                let (shrunk, _) = shrink(
                    &case,
                    &mut |c: &TestCase| {
                        check_case_with_schedules(c, cfg.run, cs, cfg.schedules).is_failure()
                    },
                    cfg.shrink_attempts,
                );
                let shrunk_divergence =
                    check_case_with_schedules(&shrunk, cfg.run, cs, cfg.schedules)
                        .describe()
                        .unwrap_or_default();
                let mut failure = Failure {
                    index: i,
                    case_seed: cs,
                    divergence,
                    stages_before: case.stages.len(),
                    stages_after: shrunk.stages.len(),
                    shrunk,
                    shrunk_divergence,
                    fixture: None,
                };
                if let Some(dir) = &cfg.corpus_dir {
                    match write_fixture(dir, cfg.seed, &failure) {
                        Ok(p) => failure.fixture = Some(p),
                        Err(e) => eprintln!("warning: could not write fixture: {e}"),
                    }
                }
                report.failures.push(failure);
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_deterministic_and_spread() {
        assert_eq!(case_seed(1, 0), case_seed(1, 0));
        assert_ne!(case_seed(1, 0), case_seed(1, 1));
        assert_ne!(case_seed(1, 0), case_seed(2, 0));
    }

    /// A small campaign over the full generator comes back clean — this
    /// is the in-tree version of the CI smoke run.
    #[test]
    fn small_campaign_is_clean() {
        let cfg = CampaignConfig {
            seed: 1,
            cases: 12,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &mut |_, _| {});
        if let Some(f) = report.failures.first() {
            panic!("case {} (seed {}): {}", f.index, f.case_seed, f.divergence);
        }
        assert_eq!(report.clean, cfg.cases);
        let json = report.to_json().render();
        assert!(json.contains("\"clean\":12"), "{json}");
    }
}
