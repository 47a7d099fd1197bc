//! The futharkd harness and the `serve_warm` workload.
//!
//! `serve_warm` is an open loop into an in-process daemon behind
//! `serve_lines` (2 devices, 2 workers). Requests are the sixteen paper
//! programs with their `small_args`, one seeded permutation after
//! another. A warm-up pass first makes every timed request a cache hit,
//! so a job is all per-request fixed cost: line parsing, cache lookup,
//! admission, queue, kernel decode, a small executor run and the response
//! encode. Latency runs from each request's due time at the fixed offered
//! rate to its response line; a rate ladder afterwards looks for the knee.
//!
//! Every response's outputs are compared with interpreter outputs
//! computed before timing starts.

use crate::layers::{self, outputs_match};
use crate::stats::{
    describe_ms, fmt_list, geomean, median, per_window, quantile, sorted, windowed,
};
use crate::tracer::{finish_trace, Tracer};
use crate::{peak_rss_mb, permutation_order, Ledger, Outcome, Settings, SETUP_REPEATS};
use futhark::{Compiled, DeviceProfile, Schedule};
use futhark_bench::{all_benchmarks, Benchmark};
use futhark_core::Value;
use futhark_serve::hash::fnv1a;
use futhark_serve::proto::{self, value_from_json, value_to_json, ErrorKind, Response};
use futhark_serve::{Daemon, DaemonConfig};
use futhark_trace::Json;
use std::collections::{HashMap, HashSet};
use std::io::{BufReader, PipeWriter, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon's device pool and worker count (fixed by the workload, not
/// by the host).
pub(crate) const DEVICES: usize = 2;
/// The fixed offered rate of `serve_warm`, jobs/s.
const WARM_RATE: f64 = 1000.0;
/// The ladder's latency limit on p99, ms.
const LIMIT_MS: f64 = 20.0;
/// Requests per latency window (one second at the fixed rate): `p50_ms`
/// and `p99_ms` come from the quieter windows (`stats::windowed`).
const WINDOW: usize = 1000;
/// Id of the shutdown request (ids of run requests count up from 0).
const SHUTDOWN_ID: u64 = u64::MAX;
/// Id of the `stats` request that shows a front-end is answering.
const READY_ID: u64 = u64::MAX - 1;
/// Stands for the id of a response line that carries none the benchmark
/// sent.
const UNKNOWN_ID: u64 = u64::MAX - 2;

fn daemon_config() -> DaemonConfig {
    DaemonConfig {
        devices: (0..DEVICES)
            .map(|i| {
                let mut d = DeviceProfile::gtx780();
                d.name = format!("gtx780#{i}");
                d
            })
            .collect(),
        workers: DEVICES,
        ..DaemonConfig::default()
    }
}

/// A request line minus its id: `"source":...,"args":[...]`.
pub(crate) fn request_body(source: &str, args: &[Value], sched: Option<&Schedule>) -> String {
    let mut pairs = vec![
        ("source", Json::Str(source.to_string())),
        ("args", Json::Arr(args.iter().map(value_to_json).collect())),
    ];
    if let Some(s) = sched {
        pairs.push(("schedule", Json::Str(s.label())));
    }
    let obj = Json::obj(pairs).render();
    obj[1..obj.len() - 1].to_string()
}

fn request_line(id: u64, body: &str) -> String {
    format!("{{\"op\":\"run\",\"id\":\"{id}\",{body}}}")
}

/// The id of a response line (responses start with `{"id":"...`).
fn response_id(line: &str) -> u64 {
    line.strip_prefix("{\"id\":\"")
        .and_then(|r| r.split('"').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(UNKNOWN_ID)
}

/// Where responses land: each with the instant its line was complete.
#[derive(Default)]
pub(crate) struct Sink {
    state: Mutex<SinkState>,
    cv: Condvar,
    count: AtomicUsize,
}

#[derive(Default)]
struct SinkState {
    /// Responses not yet taken by the checker.
    fresh: Vec<(u64, Instant, String)>,
    /// Arrival instants by id (all responses).
    at: HashMap<u64, Instant>,
}

impl Sink {
    fn push(&self, id: u64, at: Instant, line: String) {
        let mut s = self.state.lock().expect("sink lock");
        s.fresh.push((id, at, line));
        s.at.insert(id, at);
        self.count.fetch_add(1, Ordering::SeqCst);
        self.cv.notify_all();
    }

    fn count(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    fn take(&self) -> Vec<(u64, Instant, String)> {
        std::mem::take(&mut self.state.lock().expect("sink lock").fresh)
    }

    pub(crate) fn wait_for(&self, id: u64) -> Instant {
        let mut s = self.state.lock().expect("sink lock");
        loop {
            if let Some(&at) = s.at.get(&id) {
                return at;
            }
            s = self.cv.wait(s).expect("sink lock");
        }
    }

    fn wait_count(&self, n: usize) {
        let mut s = self.state.lock().expect("sink lock");
        while self.count() < n {
            s = self.cv.wait(s).expect("sink lock");
        }
    }

    pub(crate) fn arrival(&self, id: u64) -> Option<Instant> {
        self.state.lock().expect("sink lock").at.get(&id).copied()
    }

    /// Forgets the arrivals seen so far, once a phase's figures are taken,
    /// so that bookkeeping (and `peak_rss_mb`) does not grow with however
    /// far the rate ladder climbed.
    fn forget(&self) {
        self.state.lock().expect("sink lock").at.clear();
    }
}

/// The `serve_lines` writer: stamps each complete line as it is flushed.
struct SinkWriter {
    sink: Arc<Sink>,
    buf: Vec<u8>,
}

impl Write for SinkWriter {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(b);
        Ok(b.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let at = Instant::now();
        while let Some(nl) = self.buf.iter().position(|&c| c == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]).into_owned();
            self.sink.push(response_id(&line), at, line);
        }
        Ok(())
    }
}

/// A daemon and its front-end: either `serve_lines` over a pipe (the
/// untraced path) or the benchmark's own dispatcher, which mirrors
/// `serve_lines` (at most `workers` requests in flight) but times the
/// three calls `handle_line` is made of: `proto::parse_request`,
/// `Daemon::handle` and `Response::render`.
pub(crate) struct Server {
    daemon: Daemon,
    pub(crate) sink: Arc<Sink>,
    input: Mutex<Option<Input>>,
    thread: Option<JoinHandle<()>>,
    /// Request and response sizes (bytes), traced front-end only.
    sizes: Arc<Mutex<Vec<(usize, usize)>>>,
}

enum Input {
    Pipe(PipeWriter),
    Chan(mpsc::Sender<(Instant, String)>),
}

impl Server {
    pub(crate) fn start(tracer: Option<Arc<Tracer>>) -> Server {
        let daemon = Daemon::new(daemon_config());
        let sink = Arc::new(Sink::default());
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let (input, thread) = match tracer {
            None => {
                let (r, w) = std::io::pipe().expect("pipe");
                let (d, s) = (daemon.clone(), Arc::clone(&sink));
                let t = std::thread::spawn(move || {
                    let writer = SinkWriter {
                        sink: s,
                        buf: Vec::new(),
                    };
                    futhark_serve::daemon::serve_lines(&d, BufReader::new(r), writer)
                        .expect("serve_lines over a pipe");
                });
                (Input::Pipe(w), t)
            }
            Some(tracer) => {
                let (tx, rx) = mpsc::channel::<(Instant, String)>();
                let (d, s, z) = (daemon.clone(), Arc::clone(&sink), Arc::clone(&sizes));
                let t = std::thread::spawn(move || dispatch(&d, &s, &z, &tracer, rx));
                (Input::Chan(tx), t)
            }
        };
        Server {
            daemon,
            sink,
            input: Mutex::new(Some(input)),
            thread: Some(thread),
            sizes,
        }
    }

    /// Sends one line; returns the instant just before it was handed over.
    fn send(&self, line: String) -> Instant {
        let mut input = self.input.lock().expect("input lock");
        let t = Instant::now();
        match input.as_mut().expect("server is running") {
            Input::Pipe(w) => {
                w.write_all(line.as_bytes())
                    .and_then(|()| w.write_all(b"\n"))
                    .expect("daemon reads its pipe");
            }
            Input::Chan(tx) => tx.send((t, line)).expect("dispatcher is running"),
        }
        t
    }

    /// Sends `shutdown`, waits for the drain, and joins the front-end.
    pub(crate) fn stop(mut self) {
        self.send(format!("{{\"op\":\"shutdown\",\"id\":\"{SHUTDOWN_ID}\"}}"));
        self.sink.wait_for(SHUTDOWN_ID);
        drop(self.input.lock().expect("input lock").take());
        if let Some(t) = self.thread.take() {
            t.join().expect("front-end thread");
        }
    }

    /// Waits until the front-end answers a `stats` request.
    pub(crate) fn ready(self) -> Server {
        self.send(format!("{{\"op\":\"stats\",\"id\":\"{READY_ID}\"}}"));
        self.sink.wait_for(READY_ID);
        self
    }

    fn op(&self, op: &str) -> Json {
        let line = self
            .daemon
            .handle_line(&format!("{{\"op\":\"{op}\",\"id\":\"{op}\"}}"));
        Json::parse(&line).unwrap_or(Json::Null)
    }
}

/// The traced front-end's dispatcher thread.
fn dispatch(
    daemon: &Daemon,
    sink: &Sink,
    sizes: &Mutex<Vec<(usize, usize)>>,
    tracer: &Tracer,
    rx: mpsc::Receiver<(Instant, String)>,
) {
    let slots = (
        Mutex::new(Vec::from_iter(0..DEVICES as u64)),
        Condvar::new(),
    );
    std::thread::scope(|scope| {
        for (sent, line) in rx {
            let lane = {
                let mut free = slots.0.lock().expect("slot lock");
                loop {
                    if let Some(l) = free.pop() {
                        break l;
                    }
                    free = slots.1.wait(free).expect("slot lock");
                }
            };
            let slots = &slots;
            let shutdown = line.contains("\"op\":\"shutdown\"");
            let work = move || {
                handle_traced(daemon, sink, sizes, tracer, sent, &line, lane + 1);
                slots.0.lock().expect("slot lock").push(lane);
                slots.1.notify_one();
            };
            if shutdown {
                // Like serve_lines: drain what is in flight, then answer.
                let mut free = slots.0.lock().expect("slot lock");
                while free.len() < DEVICES - 1 {
                    free = slots.1.wait(free).expect("slot lock");
                }
                drop(free);
                work();
                break;
            }
            scope.spawn(work);
        }
    });
}

fn handle_traced(
    daemon: &Daemon,
    sink: &Sink,
    sizes: &Mutex<Vec<(usize, usize)>>,
    tracer: &Tracer,
    sent: Instant,
    line: &str,
    lane: u64,
) {
    let t0 = Instant::now();
    let parsed = proto::parse_request(line);
    let t1 = Instant::now();
    let resp = match parsed {
        Ok(req) => daemon.handle(&req),
        Err((id, message)) => Response::Error {
            id,
            kind: ErrorKind::Protocol,
            message,
            predicted_peak_bytes: None,
            capacity: None,
        },
    };
    let t2 = Instant::now();
    let text = resp.render();
    let t3 = Instant::now();
    let job = response_id(&text);
    sink.push(job, t3, text.clone());
    sizes
        .lock()
        .expect("size log lock")
        .push((line.len(), text.len()));
    if job >= UNKNOWN_ID {
        return;
    }
    let us = |t| tracer.us(t);
    let root = tracer.record("request", job, None, lane, us(sent), us(t3));
    tracer.record("serve.wait", job, Some(root), lane, us(sent), us(t0));
    tracer.record("serve.parse", job, Some(root), lane, us(t0), us(t1));
    let handle = tracer.record("serve.handle", job, Some(root), lane, us(t1), us(t2));
    tracer.record("serve.encode", job, Some(root), lane, us(t2), us(t3));
    if let Response::RunOk { spans, .. } = &resp {
        // The daemon reports compile (absent on a hit), queue and execute;
        // admission is the rest of handle. They ran in this order.
        let span = |n: &str| spans.iter().find(|s| s.name == n).map_or(0.0, |s| s.us);
        let (compile, queue, execute) = (span("compile"), span("queue"), span("execute"));
        let admit = (us(t2) - us(t1) - compile - queue - execute).max(0.0);
        let mut at = us(t1);
        for (name, d) in [
            ("serve.compile", compile),
            ("serve.admit", admit),
            ("serve.queue", queue),
            ("serve.execute", execute),
        ] {
            if name != "serve.compile" || spans.iter().any(|s| s.name == "compile") {
                tracer.record(name, job, Some(handle), lane, at, at + d);
            }
            at += d;
        }
    }
}

/// Checks responses as they arrive. A response whose output text is
/// byte-identical to an already verified response with the same expected
/// outputs is accepted by digest; anything else is parsed and compared
/// with the interpreter outputs.
pub(crate) struct Checker<'a> {
    expected: &'a [Vec<Value>],
    /// Index into `expected` of each request id (ids count up from 0).
    expected_of: Vec<usize>,
    verified: HashSet<(usize, u64)>,
    /// Modelled time per expected-output index, from its first good response.
    modelled: HashMap<usize, f64>,
    /// Modelled time of every good response.
    pub(crate) modelled_all: Vec<f64>,
    /// Ids of requests that failed or were wrong.
    pub(crate) failed: HashSet<u64>,
}

impl<'a> Checker<'a> {
    pub(crate) fn new(expected: &'a [Vec<Value>]) -> Checker<'a> {
        Checker {
            expected,
            expected_of: Vec::new(),
            verified: HashSet::new(),
            modelled: HashMap::new(),
            modelled_all: Vec::new(),
            failed: HashSet::new(),
        }
    }

    /// Allocates the id of a request whose outputs must equal
    /// `expected[e]`.
    fn new_id(&mut self, e: usize) -> u64 {
        self.expected_of.push(e);
        self.expected_of.len() as u64 - 1
    }

    fn check_all(&mut self, sink: &Sink, ledger: &mut Ledger) {
        for (id, _, line) in sink.take() {
            if id == UNKNOWN_ID {
                ledger.fail(
                    "protocol",
                    format!("response without a known id: {line:.80}"),
                );
            } else if id < UNKNOWN_ID {
                self.check(id, &line, ledger);
            }
        }
    }

    fn check(&mut self, id: u64, line: &str, ledger: &mut Ledger) {
        let Some(&e) = self.expected_of.get(id as usize) else {
            return ledger.fail("protocol", format!("response to unsent request {id}"));
        };
        let outputs = line
            .find("\"outputs\":")
            .and_then(|a| line[a..].find(",\"spans\":").map(|b| &line[a..a + b]));
        let total_us = line
            .rfind("\"total_us\":")
            .and_then(|a| line[a + 11..].trim_end_matches('}').parse::<f64>().ok());
        if let (Some(o), Some(us)) = (outputs, total_us) {
            if self.verified.contains(&(e, fnv1a(o.as_bytes()))) {
                self.modelled_all.push(us);
                return;
            }
        }
        let Ok(j) = Json::parse(line) else {
            self.failed.insert(id);
            return ledger.fail("protocol", format!("request {id}: response is not JSON"));
        };
        if j.get("status").and_then(Json::as_str) != Some("ok") {
            self.failed.insert(id);
            let kind = match j.get("kind").and_then(Json::as_str) {
                Some("compile") => "compile",
                Some("admission") => "admission",
                Some("run") => "run",
                _ => "protocol",
            };
            let msg = j.get("message").and_then(Json::as_str).unwrap_or("");
            return ledger.fail(kind, format!("request {id}: {msg}"));
        }
        let got: Option<Vec<Value>> = j
            .get("outputs")
            .and_then(Json::as_arr)
            .and_then(|a| a.iter().map(value_from_json).collect());
        match (got, total_us) {
            (Some(v), Some(us)) if outputs_match(&v, &self.expected[e]) => {
                if let Some(o) = outputs {
                    self.verified.insert((e, fnv1a(o.as_bytes())));
                }
                self.modelled.entry(e).or_insert(us);
                self.modelled_all.push(us);
            }
            _ => {
                self.failed.insert(id);
                ledger.fail("wrong_output", format!("request {id} (expected set {e})"));
            }
        }
    }
}

/// One request of a timed phase.
pub(crate) struct Sent {
    pub(crate) id: u64,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
}

/// Latency (ms) of each request from its due time, in sending order; a
/// failed request counts as missing every limit (`+inf`).
pub(crate) fn latencies(sent: &[Sent], sink: &Sink, failed: &HashSet<u64>) -> Vec<f64> {
    sent.iter()
        .map(|r| match sink.arrival(r.id) {
            Some(at) if !failed.contains(&r.id) => {
                at.saturating_duration_since(r.due).as_secs_f64() * 1e3
            }
            _ => f64::INFINITY,
        })
        .collect()
}

/// Wall time (s) of each run of `per_pass` consecutive requests, from the
/// first's due time to the last response.
fn pass_times(sent: &[Sent], sink: &Sink, per_pass: usize) -> Vec<f64> {
    sent.chunks_exact(per_pass)
        .filter_map(|c| {
            let end = c.iter().filter_map(|r| sink.arrival(r.id)).max()?;
            Some(end.saturating_duration_since(c[0].due).as_secs_f64())
        })
        .collect()
}

/// Completed requests per second, from the first due time to the last
/// response.
pub(crate) fn throughput(sent: &[Sent], sink: &Sink, failed: &HashSet<u64>) -> (usize, f64) {
    let completed = sent.iter().filter(|r| !failed.contains(&r.id)).count();
    let first = sent.iter().map(|r| r.due).min();
    let last = sent.iter().filter_map(|r| sink.arrival(r.id)).max();
    let span = match (first, last) {
        (Some(a), Some(b)) => b.saturating_duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    (completed, completed as f64 / span.max(1e-9))
}

/// What one open-loop phase at a fixed rate saw.
struct RatePhase {
    rate: f64,
    sent: Vec<Sent>,
    /// Requests sent and not yet answered at the middle and at the end of
    /// sending.
    backlog_mid: usize,
    backlog_end: usize,
}

impl RatePhase {
    fn lateness_ms(&self) -> Vec<f64> {
        sorted(
            self.sent
                .iter()
                .map(|r| r.sent.saturating_duration_since(r.due).as_secs_f64() * 1e3)
                .collect(),
        )
    }

    /// The backlog grows when more is outstanding at the end than at the
    /// middle by more than the jobs in service and a little jitter.
    fn backlog_grew(&self) -> bool {
        self.backlog_end > self.backlog_mid + 2 * DEVICES + 2
    }
}

/// Sleeps until shortly before `due`, then spins: a sleeping thread wakes
/// tens of microseconds late, which would count as the daemon's latency.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Sends requests at `rate` for `secs` seconds from a generator thread,
/// each due at its slot of the schedule; checks responses on this thread
/// as they arrive, then waits for the last one.
fn open_loop(
    server: &Server,
    rate: f64,
    secs: f64,
    order: &mut dyn FnMut() -> usize,
    bodies: &[String],
    checker: &mut Checker,
    ledger: &mut Ledger,
) -> RatePhase {
    let n = (rate * secs).round().max(1.0) as usize;
    let plan: Vec<(u64, usize)> = (0..n)
        .map(|_| {
            let p = order();
            (checker.new_id(p), p)
        })
        .collect();
    let base = server.sink.count();
    let done = std::sync::atomic::AtomicBool::new(false);
    let phase = std::thread::scope(|scope| {
        let gen = scope.spawn(|| {
            let start = Instant::now() + Duration::from_millis(2);
            let mut sent = Vec::with_capacity(n);
            let mut backlog_mid = 0;
            for (i, &(id, p)) in plan.iter().enumerate() {
                let due = start + Duration::from_secs_f64(i as f64 / rate);
                let line = request_line(id, &bodies[p]);
                wait_until(due);
                let t = server.send(line);
                sent.push(Sent { id, due, sent: t });
                if i == n / 2 {
                    backlog_mid = (i + 1).saturating_sub(server.sink.count() - base);
                }
            }
            let backlog_end = n.saturating_sub(server.sink.count() - base);
            done.store(true, Ordering::SeqCst);
            RatePhase {
                rate,
                sent,
                backlog_mid,
                backlog_end,
            }
        });
        while !done.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
            checker.check_all(&server.sink, ledger);
        }
        gen.join().expect("generator thread")
    });
    server.sink.wait_count(base + n);
    checker.check_all(&server.sink, ledger);
    ledger.attempted += n as u64;
    phase
}

/// `clients` threads, each sending its next request after the previous
/// reply, through `jobs` (index into the checker's expected outputs, job)
/// in order, for `secs` seconds or until the jobs run out. `body` renders
/// a job's request body; the client does so just before sending, outside
/// the latency.
pub(crate) fn closed_loop<J: Sync>(
    server: &Server,
    clients: usize,
    secs: f64,
    jobs: &[(usize, J)],
    body: impl Fn(&(usize, J)) -> String + Sync,
    checker: &mut Checker,
    ledger: &mut Ledger,
) -> Vec<Sent> {
    let ids: Vec<u64> = jobs.iter().map(|j| checker.new_id(j.0)).collect();
    let next = AtomicUsize::new(0);
    let running = AtomicUsize::new(clients);
    let log = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                loop {
                    if t0.elapsed().as_secs_f64() >= secs {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= jobs.len() {
                        break;
                    }
                    let line = request_line(ids[i], &body(&jobs[i]));
                    let t = server.send(line);
                    server.sink.wait_for(ids[i]);
                    log.lock().expect("log lock").push(Sent {
                        id: ids[i],
                        due: t,
                        sent: t,
                    });
                }
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        // Check on this thread as replies arrive, so replies are not held.
        while running.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
            checker.check_all(&server.sink, ledger);
        }
    });
    checker.check_all(&server.sink, ledger);
    let sent = log.into_inner().expect("log lock");
    ledger.attempted += sent.len() as u64;
    sent
}

/// Interpreter outputs of every paper program on its small dataset.
pub(crate) fn small_references(
    benches: &[Benchmark],
    ledger: &mut Ledger,
) -> Option<Vec<Vec<Value>>> {
    let mut out = Vec::new();
    for b in benches {
        match futhark::interpret(&b.source, &b.small_args) {
            Ok(v) => out.push(v),
            Err(e) => {
                ledger.fail("run", format!("{}: interpreter: {e}", b.name));
                return None;
            }
        }
    }
    Some(out)
}

/// Starts a daemon and warms it with one request per body, one at a time.
fn start_warm(
    tracer: Option<Arc<Tracer>>,
    bodies: &[String],
    checker: &mut Checker,
    ledger: &mut Ledger,
) -> Server {
    let server = Server::start(tracer);
    for (p, body) in bodies.iter().enumerate() {
        let id = checker.new_id(p);
        server.send(request_line(id, body));
        server.sink.wait_for(id);
    }
    ledger.attempted += bodies.len() as u64;
    server
}

/// Runs set-up `repeats` times (stopping every server but the last) and
/// returns the last server, the set-up times (s), and the response sinks
/// of the stopped servers (their replies still need checking).
pub(crate) fn timed_setups(
    repeats: usize,
    mut setup: impl FnMut() -> Server,
) -> (Server, Vec<f64>, Vec<Arc<Sink>>) {
    let mut times = Vec::with_capacity(repeats);
    let mut stopped = Vec::new();
    let mut last: Option<Server> = None;
    for _ in 0..repeats {
        if let Some(old) = last.take() {
            stopped.push(Arc::clone(&old.sink));
            old.stop();
        }
        let t = Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), times, stopped)
}

/// Prints one rate's line; returns whether the rate was sustained.
fn describe_rate(out: &mut Outcome, ph: &RatePhase, lat: &[f64]) -> bool {
    let late = ph.lateness_ms();
    let lat = &sorted(lat.to_vec());
    let ok = quantile(lat, 0.99) <= LIMIT_MS && !ph.backlog_grew();
    out.note(format!(
        "rate {:>6.0}/s: {}; generator lateness median {:.4} ms max {:.4} ms; \
         backlog mid {} end {}; {}",
        ph.rate,
        describe_ms("latency", lat),
        quantile(&late, 0.5),
        late.last().copied().unwrap_or(0.0),
        ph.backlog_mid,
        ph.backlog_end,
        if ok { "sustained" } else { "NOT sustained" }
    ));
    ok
}

/// The end-to-end metrics every workload reports, from one timed phase.
/// `p50_ms` and `p99_ms` are each the lower quartile, over windows of
/// `WINDOW` requests, of the window's percentile.
pub(crate) fn e2e_metrics(
    out: &mut Outcome,
    setup: &[f64],
    passes: &[f64],
    modelled: &[f64],
    lat: &[f64],
    completed: usize,
    jobs_per_s: f64,
) {
    out.metric("setup_s", median(setup), "s", setup.len());
    out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    out.metric("pass_s", median(passes), "s", passes.len());
    out.metric(
        "modelled_geomean_us",
        geomean(modelled),
        "sim_us",
        modelled.len(),
    );
    out.metric("p50_ms", windowed(lat, WINDOW, 0.5), "ms", lat.len());
    out.metric("p99_ms", windowed(lat, WINDOW, 0.99), "ms", lat.len());
    out.metric("jobs_per_s", jobs_per_s, "jobs/s", completed);
}

fn warm_bodies(benches: &[Benchmark]) -> Vec<String> {
    benches
        .iter()
        .map(|b| request_body(&b.source, &b.small_args, None))
        .collect()
}

/// Untraced `serve_warm`: 80% of the time at the fixed rate, then the
/// ladder in steps of 4% of the time.
pub fn run_warm(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let benches = all_benchmarks();
    let Some(expected) = small_references(&benches, &mut ledger) else {
        out.ledger = ledger;
        return out;
    };
    let bodies = warm_bodies(&benches);
    let mut checker = Checker::new(&expected);
    let (server, setup, stopped) = timed_setups(SETUP_REPEATS, || {
        start_warm(None, &bodies, &mut checker, &mut ledger)
    });
    for sink in stopped.iter().chain([&server.sink]) {
        checker.check_all(sink, &mut ledger);
    }
    out.note(format!(
        "setup (daemon start + warm-up pass) x{SETUP_REPEATS}: {}",
        fmt_list(&setup)
    ));

    let mut order = permutation_order(s.seed, bodies.len());
    let fixed = open_loop(
        &server,
        WARM_RATE,
        s.seconds * 0.8,
        &mut order,
        &bodies,
        &mut checker,
        &mut ledger,
    );
    let lat = latencies(&fixed.sent, &server.sink, &checker.failed);
    for (q, name) in [(0.5, "p50"), (0.99, "p99")] {
        out.note(format!(
            "{name} per window of {WINDOW} (ms): {}",
            fmt_list(&per_window(&lat, WINDOW, q))
        ));
    }
    let passes = pass_times(&fixed.sent, &server.sink, bodies.len());
    let (completed, jobs_per_s) = throughput(&fixed.sent, &server.sink, &checker.failed);
    describe_rate(&mut out, &fixed, &lat);
    server.sink.forget();

    // The ladder climbs until a rate is not sustained; the knee is the
    // highest sustained rate.
    let ladder = [1500.0, 1750.0, 2000.0, 2250.0, 2500.0, 3000.0];
    let step_secs = s.seconds * 0.04;
    let mut knee = None;
    for rate in ladder {
        let ph = open_loop(
            &server,
            rate,
            step_secs,
            &mut order,
            &bodies,
            &mut checker,
            &mut ledger,
        );
        let l = latencies(&ph.sent, &server.sink, &checker.failed);
        server.sink.forget();
        if !describe_rate(&mut out, &ph, &l) {
            break;
        }
        knee = Some(rate);
    }
    out.note(format!(
        "knee: highest sustained ladder rate {} (p99 <= {LIMIT_MS} ms, no growing backlog)",
        knee.map_or("below the ladder".to_string(), |r| format!("{r} jobs/s"))
    ));
    server.stop();
    let modelled: Vec<f64> = (0..bodies.len())
        .filter_map(|p| checker.modelled.get(&p).copied())
        .collect();
    e2e_metrics(
        &mut out, &setup, &passes, &modelled, &lat, completed, jobs_per_s,
    );
    out.ledger = ledger;
    out
}

/// Per-job share of latency spent outside the daemon's three calls
/// (parse, handle, encode): generator lateness plus the front-end's
/// dispatch wait.
pub(crate) fn residual_share(tracer: &Tracer, sent: &[Sent], sink: &Sink) -> f64 {
    let mut inside: HashMap<u64, f64> = HashMap::new();
    for sp in tracer.spans() {
        if matches!(
            sp.name.as_str(),
            "serve.parse" | "serve.handle" | "serve.encode"
        ) {
            *inside.entry(sp.job).or_default() += sp.dur_us();
        }
    }
    let shares: Vec<f64> = sent
        .iter()
        .filter_map(|r| {
            let lat = sink
                .arrival(r.id)?
                .saturating_duration_since(r.due)
                .as_secs_f64()
                * 1e6;
            Some((lat - inside.get(&r.id)?) / lat)
        })
        .collect();
    median(&shares)
}

/// Serve-layer metrics from the traced front-end's spans and the daemon's
/// `stats` and `metrics` operations. `wall_s` is the traffic's duration.
pub(crate) fn serve_metrics(out: &mut Outcome, tracer: &Tracer, server: &Server, wall_s: f64) {
    let med = |name: &str| {
        let d = tracer.durations(name);
        (median(&d), d.len())
    };
    for (metric, span) in [
        ("serve.parse_us", "serve.parse"),
        ("serve.handle_us", "serve.handle"),
        ("serve.encode_us", "serve.encode"),
        ("serve.compile_us", "serve.compile"),
        ("serve.queue_us", "serve.queue"),
        ("serve.execute_us", "serve.execute"),
        ("serve.admit_us", "serve.admit"),
    ] {
        let (v, n) = med(span);
        out.metric(metric, v, "us", n);
    }
    let sizes = server.sizes.lock().expect("size log lock").clone();
    let req: Vec<f64> = sizes.iter().map(|s| s.0 as f64).collect();
    let resp: Vec<f64> = sizes.iter().map(|s| s.1 as f64).collect();
    out.metric("serve.req_bytes", median(&req), "bytes", req.len());
    out.metric("serve.resp_bytes", median(&resp), "bytes", resp.len());
    let stats = server.op("stats");
    let cache = stats.get("stats").and_then(|s| s.get("cache"));
    let c = |k: &str| {
        cache
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    out.metric("cache.hit_rate", c("hit_rate"), "ratio", 1);
    out.metric("cache.misses", c("misses"), "count", 1);
    out.metric("cache.evictions", c("evictions"), "count", 1);
    let m = server.op("metrics");
    let m = m.get("metrics");
    let waits = m
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("queue.waits"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let busy_us: f64 = m
        .and_then(|m| m.get("devices"))
        .and_then(Json::as_arr)
        .map_or(0.0, |d| {
            d.iter()
                .filter_map(|d| d.get("busy_us").and_then(Json::as_f64))
                .sum()
        });
    out.metric("serve.queue_waits", waits, "count", 1);
    out.metric(
        "serve.device_busy_frac",
        busy_us / (DEVICES as f64 * wall_s * 1e6),
        "ratio",
        1,
    );
}

/// The compile and executor probes every traced serving run makes on the
/// sixteen paper programs (small datasets, default schedule).
pub(crate) fn paper_probes(
    out: &mut Outcome,
    ledger: &mut Ledger,
    s: &Settings,
    tracer: &Tracer,
    benches: &[Benchmark],
    expected: &[Vec<Value>],
    compile_reports: bool,
) -> Option<layers::ExecProbe> {
    let mut compiled = Vec::new();
    for (i, b) in benches.iter().enumerate() {
        ledger.attempted += 1;
        match layers::compile_traced(
            tracer,
            layers::paper_job(i),
            0,
            &b.source,
            &Schedule::default(),
        ) {
            Ok(c) => compiled.push(c),
            Err(e) => {
                ledger.fail("compile", format!("{}: {e}", b.name));
                return None;
            }
        }
    }
    if compile_reports {
        let reports: Vec<_> = compiled.iter().filter_map(Compiled::report).collect();
        layers::compile_metrics(out, &reports);
    }
    Some(layers::exec_probe(
        out,
        ledger,
        s,
        tracer,
        benches,
        &compiled,
        &|b| &b.small_args,
        expected,
        s.seconds * 0.1,
        false,
    ))
}

/// Traced `serve_warm`: the paper probes, then an untraced fixed-rate
/// phase through `serve_lines` (the overhead baseline), then the same
/// traffic through the traced front-end.
pub fn run_warm_traced(s: &Settings) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let tracer = Arc::new(Tracer::new());
    let benches = all_benchmarks();
    let Some(expected) = small_references(&benches, &mut ledger) else {
        out.ledger = ledger;
        return out;
    };
    let Some(probe) = paper_probes(&mut out, &mut ledger, s, &tracer, &benches, &expected, true)
    else {
        out.ledger = ledger;
        return out;
    };
    layers::interp_metrics(&mut out, &probe.reports.iter().collect::<Vec<_>>());
    let bodies = warm_bodies(&benches);
    let mut checker = Checker::new(&expected);
    let secs = s.seconds * 0.4;

    let base = start_warm(None, &bodies, &mut checker, &mut ledger);
    let mut order = permutation_order(s.seed, bodies.len());
    let ph = open_loop(
        &base,
        WARM_RATE,
        secs,
        &mut order,
        &bodies,
        &mut checker,
        &mut ledger,
    );
    let base_lat = latencies(&ph.sent, &base.sink, &checker.failed);
    let base_pass = median(&pass_times(&ph.sent, &base.sink, bodies.len()));
    describe_rate(&mut out, &ph, &base_lat);
    base.stop();

    let server = start_warm(
        Some(Arc::clone(&tracer)),
        &bodies,
        &mut checker,
        &mut ledger,
    );
    checker.check_all(&server.sink, &mut ledger);
    let mut order = permutation_order(s.seed, bodies.len());
    let t = Instant::now();
    let ph = open_loop(
        &server,
        WARM_RATE,
        secs,
        &mut order,
        &bodies,
        &mut checker,
        &mut ledger,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let lat = latencies(&ph.sent, &server.sink, &checker.failed);
    let pass = median(&pass_times(&ph.sent, &server.sink, bodies.len()));
    describe_rate(&mut out, &ph, &lat);
    serve_metrics(&mut out, &tracer, &server, wall_s);
    let residual = residual_share(&tracer, &ph.sent, &server.sink);
    server.stop();
    let lateness = quantile(&ph.lateness_ms(), 0.5);
    traced_e2e(
        &mut out, &tracer, pass, base_pass, &lat, &base_lat, residual, lateness,
    );
    finish_trace(&mut out, &tracer, "serve_warm", s.seed);
    out.ledger = ledger;
    out
}

/// The traced run's reconciliation metrics: traced `pass_s` and `p50_ms`,
/// their unexplained share, and the overhead over the untraced phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn traced_e2e(
    out: &mut Outcome,
    tracer: &Tracer,
    pass: f64,
    base_pass: f64,
    lat: &[f64],
    base_lat: &[f64],
    residual: f64,
    lateness_ms: f64,
) {
    let (p50, base_p50) = (windowed(lat, WINDOW, 0.5), windowed(base_lat, WINDOW, 0.5));
    out.metric("trace.pass_s", pass, "s", 1);
    out.metric("trace.p50_ms", p50, "ms", lat.len());
    out.metric("trace.residual_share", residual, "ratio", lat.len());
    out.metric("trace.overhead_pass_s", pass - base_pass, "s", 2);
    out.metric("trace.overhead_p50_ms", p50 - base_p50, "ms", 2);
    let stages: Vec<String> = ["serve.wait", "serve.parse", "serve.handle", "serve.encode"]
        .iter()
        .map(|n| format!("{n} {:.4}", median(&tracer.durations(n)) / 1e3))
        .collect();
    let stage_sum: f64 = ["serve.wait", "serve.parse", "serve.handle", "serve.encode"]
        .iter()
        .map(|n| median(&tracer.durations(n)) / 1e3)
        .sum();
    out.note(format!(
        "reconcile: traced p50 {p50:.4} ms vs generator lateness {lateness_ms:.4} + stage medians \
         ({}) = {:.4} ms; median per-job share outside parse+handle+encode {residual:.4}; \
         untraced p50 {base_p50:.4} ms, tracing overhead {:+.4} ms; traced pass {pass:.5} s \
         (untraced {base_pass:.5} s)",
        stages.join(" + "),
        lateness_ms + stage_sum,
        p50 - base_p50,
    ));
}

/// The serve layers for `paper_suite`'s traced run, which has no daemon
/// traffic of its own: the sixteen small datasets through the traced
/// front-end, once cold and once warm.
pub fn serve_probe(
    out: &mut Outcome,
    ledger: &mut Ledger,
    tracer: &Arc<Tracer>,
    benches: &[Benchmark],
) {
    let Some(expected) = small_references(benches, ledger) else {
        return;
    };
    let bodies = warm_bodies(benches);
    let mut checker = Checker::new(&expected);
    let t = Instant::now();
    let server = start_warm(Some(Arc::clone(tracer)), &bodies, &mut checker, ledger);
    let jobs: Vec<(usize, String)> = bodies.iter().cloned().enumerate().collect();
    closed_loop(
        &server,
        1,
        f64::INFINITY,
        &jobs,
        |j| j.1.clone(),
        &mut checker,
        ledger,
    );
    let wall_s = t.elapsed().as_secs_f64();
    serve_metrics(out, tracer, &server, wall_s);
    server.stop();
}
