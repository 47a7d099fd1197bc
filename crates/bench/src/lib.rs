//! The evaluation harness for futhark-rs: the sixteen benchmarks of the
//! paper's Section 6 (Table 1, Table 2, Figure 13) and the optimisation
//! ablations of Section 6.1.1.
//!
//! Each benchmark consists of (a) a Futhark source program ported with the
//! same structure as the paper's port, (b) a dataset generator following
//! Table 2's configuration (scaled to simulator-friendly sizes; the scale
//! factors are recorded in EXPERIMENTS.md), and (c) a *reference
//! implementation model*: the characteristics Section 6.1 reports for each
//! hand-written baseline (sequential host reductions, uncoalesced
//! accesses, missing fusion, time tiling, hand tuning), expressed either
//! structurally (a different source / schedule) or — where our
//! simulator cannot derive the effect — as a documented time adjustment.

pub mod suite;

use futhark::{Compiled, Compiler, Device, Json, PerfReport, RunOptions, Schedule, SimEngine};
use futhark_core::Value;
use std::collections::BTreeSet;

/// Which benchmark suite a program was ported from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Rodinia 3.x.
    Rodinia,
    /// FinPar.
    FinPar,
    /// Parboil.
    Parboil,
    /// Accelerate's example programs.
    Accelerate,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Suite::Rodinia => "Rodinia",
            Suite::FinPar => "FinPar",
            Suite::Parboil => "Parboil",
            Suite::Accelerate => "Accelerate",
        };
        f.write_str(s)
    }
}

/// The paper's Table 1 runtimes in milliseconds, for side-by-side printing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperNumbers {
    /// NVIDIA reference runtime.
    pub nv_ref: Option<f64>,
    /// NVIDIA Futhark runtime.
    pub nv_fut: f64,
    /// AMD reference runtime (None where Table 1 prints "—").
    pub amd_ref: Option<f64>,
    /// AMD Futhark runtime.
    pub amd_fut: Option<f64>,
}

/// The reference-implementation model for a benchmark.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Alternative source structurally matching the baseline (e.g. a
    /// sequential host reduction); `None` reuses the Futhark source.
    pub source: Option<String>,
    /// Schedule for compiling the reference (e.g. coalescing off when the
    /// paper reports the baseline was uncoalesced).
    pub schedule: Schedule,
    /// Time multiplier applied on the NVIDIA profile for effects our
    /// simulator cannot derive (hand tuning, time tiling); 1.0 = none.
    pub adjust_nv: f64,
    /// Same for the AMD profile.
    pub adjust_amd: f64,
    /// Human-readable explanation, quoted in EXPERIMENTS.md.
    pub note: &'static str,
}

impl Reference {
    /// A reference identical to the Futhark version (no known baseline
    /// deficiencies).
    pub fn same() -> Reference {
        Reference {
            source: None,
            schedule: Schedule::default(),
            adjust_nv: 1.0,
            adjust_amd: 1.0,
            note: "reference structurally equal to the Futhark port",
        }
    }
}

/// One benchmark instance (program + dataset + reference model).
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Name as in Table 1.
    pub name: &'static str,
    /// Origin suite.
    pub suite: Suite,
    /// Table 2's dataset description.
    pub paper_dataset: &'static str,
    /// Our scaled dataset configuration.
    pub scaled_dataset: String,
    /// The Futhark source.
    pub source: String,
    /// The reference model.
    pub reference: Reference,
    /// Arguments for timed runs.
    pub args: Vec<Value>,
    /// Smaller arguments for correctness verification.
    pub small_args: Vec<Value>,
    /// Whether Table 1 has an AMD reference ("—" rows don't).
    pub amd_reference: bool,
    /// The paper's measured numbers.
    pub paper: PaperNumbers,
}

impl Benchmark {
    /// Compiles the Futhark version under the given schedule.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn compile(&self, sched: Schedule) -> Result<Compiled, futhark::Error> {
        Compiler::with_schedule(sched).compile(&self.source)
    }

    /// Runs the Futhark version on a device, returning the report.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run_futhark(
        &self,
        device: Device,
        run: RunOptions,
    ) -> Result<PerfReport, futhark::Error> {
        let compiled = self.compile(Schedule::default())?;
        let (_, perf) = compiled.run_with_opts(device, &self.args, run)?;
        Ok(perf)
    }

    /// Runs the reference model on a device, returning adjusted
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run_reference(&self, device: Device, run: RunOptions) -> Result<f64, futhark::Error> {
        let src = self.reference.source.as_deref().unwrap_or(&self.source);
        let compiled = Compiler::with_schedule(self.reference.schedule.clone()).compile(src)?;
        let (_, perf) = compiled.run_with_opts(device, &self.args, run)?;
        let adjust = match device {
            Device::Gtx780 => self.reference.adjust_nv,
            Device::W8100 => self.reference.adjust_amd,
        };
        Ok(perf.total_ms() * adjust)
    }

    /// Verifies the compiled program against the reference interpreter on
    /// the small dataset.
    ///
    /// # Errors
    ///
    /// Returns an error when outputs mismatch or any stage fails.
    pub fn verify(&self, run: RunOptions) -> Result<(), String> {
        let compiled = self
            .compile(Schedule::default())
            .map_err(|e| format!("{}: compile failed: {e}", self.name))?;
        let (gpu, _) = compiled
            .run_with_opts(Device::Gtx780, &self.small_args, run)
            .map_err(|e| format!("{}: gpu run failed: {e}", self.name))?;
        let interp = futhark::interpret(&self.source, &self.small_args)
            .map_err(|e| format!("{}: interpreter failed: {e}", self.name))?;
        if gpu.len() != interp.len() {
            return Err(format!("{}: result arity mismatch", self.name));
        }
        for (i, (a, b)) in gpu.iter().zip(&interp).enumerate() {
            if !a.approx_eq(b, 1e-3) {
                return Err(format!(
                    "{}: result {i} differs between GPU and interpreter",
                    self.name
                ));
            }
        }
        Ok(())
    }
}

/// All sixteen benchmarks, in Table 1 order.
pub fn all_benchmarks() -> Vec<Benchmark> {
    let mut v = Vec::new();
    v.extend(suite::rodinia::benchmarks());
    v.extend(suite::finpar::benchmarks());
    v.extend(suite::parboil::benchmarks());
    v.extend(suite::accelerate::benchmarks());
    v
}

/// Looks up a benchmark by (case-insensitive) name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

/// The execution options the binaries run with, from the environment:
/// `FUTHARK_SIM_THREADS` host threads (an unparsable or zero value means
/// 1; unset means the machine's available parallelism) and
/// `FUTHARK_SIM_ENGINE` (`lane`, in any case, selects the per-lane
/// reference engine; anything else, or unset, the warp engine). This is
/// the only place the variables are read; the libraries take explicit
/// [`RunOptions`].
pub fn run_options_from_env() -> RunOptions {
    run_options_from(|var| std::env::var(var).ok())
}

/// [`run_options_from_env`] over an arbitrary variable lookup.
fn run_options_from(var: impl Fn(&str) -> Option<String>) -> RunOptions {
    let mut opts = RunOptions::default();
    if let Some(v) = var("FUTHARK_SIM_THREADS") {
        opts.threads = v.trim().parse().ok().filter(|&n| n >= 1).unwrap_or(1);
    }
    if var("FUTHARK_SIM_ENGINE").is_some_and(|v| v.trim().eq_ignore_ascii_case("lane")) {
        opts.engine = SimEngine::Lane;
    }
    opts
}

/// Collects every key path of a JSON document (objects recurse by key,
/// arrays contribute one `[]` step per distinct element shape) — the
/// document's *schema*, independent of its values.
fn schema_paths(j: &Json, prefix: &str, out: &mut BTreeSet<String>) {
    match j {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(p.clone());
                schema_paths(v, &p, out);
            }
        }
        Json::Arr(items) => {
            for v in items {
                schema_paths(v, &format!("{prefix}[]"), out);
            }
        }
        _ => {}
    }
}

/// The `--check-schema` gate: compares the schema of the committed
/// results file at `path` against the document `tool` writes today
/// (`current`). Exits 0 when the key sets match, 1 on drift (listing the
/// paths present on only one side, then the `regenerate` command).
pub fn check_schema(path: &str, current: &Json, tool: &str, regenerate: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("reading {path}: {e}");
        std::process::exit(1)
    });
    let committed = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("parsing {path}: {e}");
        std::process::exit(1)
    });
    let mut want = BTreeSet::new();
    let mut have = BTreeSet::new();
    schema_paths(current, "", &mut want);
    schema_paths(&committed, "", &mut have);
    if want == have {
        println!(
            "schema OK: {path} matches the current {tool} output ({} key paths)",
            want.len()
        );
        std::process::exit(0)
    }
    for missing in want.difference(&have) {
        println!("schema drift: {path} is missing {missing:?}");
    }
    for extra in have.difference(&want) {
        println!("schema drift: {path} has stale key {extra:?}");
    }
    eprintln!("schema of {path} drifted; regenerate with:\n  {regenerate}");
    std::process::exit(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from(vars: &[(&str, &str)]) -> RunOptions {
        run_options_from(|k| {
            vars.iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn run_options_from_env_vars() {
        let engine = |v| from(&[("FUTHARK_SIM_ENGINE", v)]).engine;
        assert_eq!(engine("lane"), SimEngine::Lane);
        assert_eq!(engine(" LANE "), SimEngine::Lane, "case-insensitive");
        assert_eq!(engine("warp"), SimEngine::Warp);
        assert_eq!(engine("bogus"), SimEngine::Warp);

        let threads = |v| from(&[("FUTHARK_SIM_THREADS", v)]).threads;
        assert_eq!(threads("3"), 3);
        assert_eq!(threads("not-a-number"), 1);
        assert_eq!(threads("0"), 1);

        // Unset: the library defaults (available parallelism, warp).
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(from(&[]).threads, cores);
        assert_eq!(from(&[]), RunOptions::default());

        // Explicit options win over the environment-derived defaults.
        let env = from(&[("FUTHARK_SIM_ENGINE", "lane"), ("FUTHARK_SIM_THREADS", "2")]);
        assert_eq!((env.engine, env.threads), (SimEngine::Lane, 2));
        let opts = RunOptions {
            threads: 7,
            engine: SimEngine::Warp,
            ..env
        };
        assert_eq!((opts.engine, opts.threads), (SimEngine::Warp, 7));
    }
}
