//! The benchmark's span recorder. Spans are recorded around the calls the
//! benchmark makes into each layer (and, where a layer reports its own
//! phases — compile `PassSpan`s, a response's `spans` — as children laid
//! out inside the call that produced them). They are kept in memory and
//! written once, at the end, as a Chrome/Perfetto trace through
//! `futhark_trace::ChromeTrace`.

use crate::Outcome;
use futhark_trace::{ChromeTrace, Json};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one job (one program run or one request).
    pub job: u64,
    pub name: String,
    /// Trace lane (the thread the call ran on).
    pub lane: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per span name: count, total and self time (µs).
#[derive(Default, Clone, Copy)]
pub struct SelfTime {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Times `f` as span `name` of `job`; `f` receives the new span's id so
    /// that it can parent spans of its own.
    pub fn time<R>(
        &self,
        name: &str,
        job: u64,
        parent: Option<u64>,
        lane: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.push(Span {
            id,
            parent,
            job,
            name: name.to_string(),
            lane,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        r
    }

    /// Records a span whose interval was measured elsewhere.
    pub fn record(
        &self,
        name: &str,
        job: u64,
        parent: Option<u64>,
        lane: u64,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent,
            job,
            name: name.to_string(),
            lane,
            start_us,
            end_us,
        });
        id
    }

    fn push(&self, s: Span) {
        self.spans.lock().expect("span log lock").push(s);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log lock")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover.
    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        let spans = self.spans();
        let mut child_us: HashMap<u64, f64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_us.entry(p).or_default() += s.dur_us();
            }
        }
        let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
        for s in &spans {
            let e = out.entry(s.name.clone()).or_default();
            e.count += 1;
            e.total_us += s.dur_us();
            e.self_us += (s.dur_us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
        }
        out
    }

    /// Writes every span as a Chrome/Perfetto trace into `perfbench/out/`
    /// and returns the path written.
    pub fn write_chrome(&self, file: &str) -> std::io::Result<PathBuf> {
        let mut t = ChromeTrace::new();
        let spans = self.spans();
        let mut lanes: Vec<u64> = spans.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            t.name_lane(1, lane, &format!("perfbench thread {lane}"));
        }
        for s in &spans {
            t.complete(
                &s.name,
                "perfbench",
                1,
                s.lane,
                s.start_us,
                s.dur_us(),
                vec![
                    ("job", Json::U64(s.job)),
                    ("span", Json::U64(s.id)),
                    ("parent", s.parent.map_or(Json::Null, Json::U64)),
                ],
            );
        }
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(file);
        std::fs::write(&path, t.to_json().render())?;
        Ok(path)
    }
}

/// Reports the self time of every span name and writes the Chrome trace
/// as `trace-<workload>-seed<seed>.json`.
pub fn finish_trace(out: &mut Outcome, tracer: &Tracer, workload: &str, seed: u64) {
    for (name, t) in tracer.self_times() {
        out.note(format!(
            "self time {name:<22} n={:<6} total={:>12.1} us self={:>12.1} us",
            t.count, t.total_us, t.self_us
        ));
    }
    match tracer.write_chrome(&format!("trace-{workload}-seed{seed}.json")) {
        Ok(p) => out.note(format!("chrome trace: {}", p.display())),
        Err(e) => out.note(format!("chrome trace not written: {e}")),
    }
}
