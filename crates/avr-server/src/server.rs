//! The sweep server: a TCP accept loop, per-connection sessions, and one
//! engine thread that feeds submitted batches into a [`SimPool`].
//!
//! # Determinism contract
//!
//! A submitted batch produces results **bit-identical to running the same
//! cells serially** with `run_on_design_in` — at any worker width, any
//! submission interleaving, and across client disconnects. The contract
//! holds because
//!
//! * each cell is an independent deterministic simulation whose config is
//!   resolved from the cell spec alone ([`CellSpec::config`] pins the
//!   backend, so the server's own environment never leaks into results);
//! * the pool writes each cell's result into its own preallocated slot, so
//!   scheduling affects only *when* a cell finishes, never *what* it
//!   computes;
//! * result lines are rendered once, server-side, by the shared
//!   [`crate::proto`] encoder and stored per cell — every subscriber
//!   (including one that reconnects mid-batch) replays the same bytes.
//!
//! Batches run one at a time, in submission order, on the full pool —
//! cells within a batch are claimed heaviest-first by
//! [`Workload::cost_hint`], with the first cell of each distinct
//! (workload, scale) boosted so memoized golden runs compute early
//! (mirroring `run_grid_layouts`).
//!
//! # Failure containment
//!
//! A cell whose simulation panics fails alone: the panic is caught on its
//! pool worker and streamed as a `cell_error` event naming the cell and the
//! panic message, the rest of the batch runs, and `job_done` counts it under
//! `failed`. Out-of-range config overrides never get that far — they are
//! rejected at submit ([`avr_types::ConfigOverrides::validate`]).
//!
//! # Wire path
//!
//! Every session runs with `TCP_NODELAY`. Without it a one-cell request
//! stalls for the peer's delayed ACK: the small submit ack goes out, the
//! client has nothing to send back, and Nagle's algorithm holds the result
//! and `job_done` lines until the ACK timer fires (≥ 40 ms on Linux). The
//! session writer also coalesces: it writes every line already queued in
//! its outbox before one flush, so a batch's last result and its `job_done`
//! leave in one write. Request lines are read through a bound of
//! [`MAX_REQUEST_LINE`] bytes; a longer line earns an error reply and closes
//! the session, since the reader cannot resync mid-line.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;

use avr_core::pool::env_threads;
use avr_core::{PoolControl, SimPool};
use avr_sim::RunMetrics;
use avr_types::{BenchScale, CellSpec, DesignKind, LayoutKind, SystemConfig};
use avr_workloads::runner::GOLDEN_CELL_BOOST;
use avr_workloads::{golden, run_on_design_in, workload_by_name, workload_names, Workload};

use crate::json::Json;
use crate::proto::{self, Request};

/// Longest request line a session accepts, in bytes, not counting the
/// newline: 1 MiB, room for several thousand fully-overridden cells in one submit.
/// Larger sweeps split into several submits.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// How the engine simulates one cell: [`run_on_design_in`] unless replaced
/// with [`SweepServer::with_runner`].
pub type CellRunner = fn(&dyn Workload, &SystemConfig, DesignKind, LayoutKind) -> RunMetrics;

/// The scale-default base config a cell's overrides apply to — the same
/// mapping the bench harness uses, so a wire cell with no overrides is the
/// exact config of the corresponding direct run.
pub fn base_config(scale: BenchScale) -> SystemConfig {
    match scale {
        BenchScale::Tiny => SystemConfig::tiny(),
        BenchScale::Bench => SystemConfig::per_core_scaled(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Accepting,
    Draining,
    Shutdown,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Accepting => "accepting",
            Phase::Draining => "draining",
            Phase::Shutdown => "shutdown",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum JobPhase {
    Queued,
    Running,
    Done { completed: usize, failed: usize, cancelled: usize },
}

impl JobPhase {
    fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done { .. } => "done",
        }
    }
}

/// Everything the server remembers about one submitted batch. Results are
/// pre-rendered wire lines, stored per cell under `inner`'s lock — the
/// same lock that registers subscribers, so a replay-then-subscribe can
/// neither miss nor duplicate an event.
struct JobState {
    id: u64,
    tag: Option<String>,
    specs: Vec<CellSpec>,
    ctl: PoolControl,
    /// Cells that panicked so far (`ctl` counts them as finished, and a
    /// little later than this).
    failed: AtomicU64,
    inner: Mutex<JobInner>,
}

struct JobInner {
    phase: JobPhase,
    results: Vec<Option<Arc<String>>>,
    done_line: Option<Arc<String>>,
    subs: Vec<mpsc::Sender<Arc<String>>>,
}

impl JobState {
    fn new(id: u64, tag: Option<String>, specs: Vec<CellSpec>) -> Self {
        let cells = specs.len();
        JobState {
            id,
            tag,
            specs,
            ctl: PoolControl::new(),
            failed: AtomicU64::new(0),
            inner: Mutex::new(JobInner {
                phase: JobPhase::Queued,
                results: vec![None; cells],
                done_line: None,
                subs: Vec::new(),
            }),
        }
    }

    /// Store a finished cell's wire line and fan it out to live
    /// subscribers; dead ones (writer gone) are pruned.
    fn publish(&self, cell: usize, line: String) {
        let mut inner = self.inner.lock().unwrap();
        let line = Arc::new(line);
        inner.results[cell] = Some(line.clone());
        inner.subs.retain(|tx| tx.send(line.clone()).is_ok());
    }

    /// Seal the job: record the terminal event and release subscribers.
    fn finish(&self, completed: usize, failed: usize, cancelled: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.phase = JobPhase::Done { completed, failed, cancelled };
        let line = Arc::new(proto::job_done_event(self.id, completed, failed, cancelled));
        inner.done_line = Some(line.clone());
        for tx in inner.subs.drain(..) {
            let _ = tx.send(line.clone());
        }
    }

    /// Replay finished cells with index >= `from` (ascending), then either
    /// deliver the terminal event (done jobs) or attach `tx` as a live
    /// subscriber. Atomic w.r.t. [`JobState::publish`], so a reconnecting
    /// client sees every event exactly once.
    fn subscribe(&self, from: usize, tx: &mpsc::Sender<Arc<String>>) {
        let mut inner = self.inner.lock().unwrap();
        for line in inner.results.iter().skip(from).flatten() {
            let _ = tx.send(line.clone());
        }
        if let JobPhase::Done { .. } = inner.phase {
            if let Some(done) = &inner.done_line {
                let _ = tx.send(done.clone());
            }
        } else {
            inner.subs.push(tx.clone());
        }
    }

    fn status_json(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let (completed, failed, cancelled) = match inner.phase {
            JobPhase::Queued => (0, 0, 0),
            JobPhase::Running => {
                let failed = self.failed.load(Ordering::Relaxed) as usize;
                (self.ctl.finished().saturating_sub(failed), failed, 0)
            }
            JobPhase::Done { completed, failed, cancelled } => (completed, failed, cancelled),
        };
        let mut fields = vec![
            ("job".to_string(), Json::from(self.id)),
            ("state".to_string(), Json::from(inner.phase.label())),
            ("cells".to_string(), Json::from(self.specs.len())),
            ("completed".to_string(), Json::from(completed)),
            ("failed".to_string(), Json::from(failed)),
            ("cancelled".to_string(), Json::from(cancelled)),
        ];
        if let Some(tag) = &self.tag {
            fields.insert(1, ("tag".to_string(), Json::from(tag.as_str())));
        }
        Json::Obj(fields)
    }
}

struct QueueState {
    phase: Phase,
    queue: VecDeque<Arc<JobState>>,
}

struct ServerState {
    pool: SimPool,
    runner: CellRunner,
    addr: SocketAddr,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, Arc<JobState>>>,
    next_job: AtomicU64,
    current: Mutex<Option<Arc<JobState>>>,
    completed_cells: AtomicU64,
    failed_cells: AtomicU64,
    worker_busy: Vec<AtomicBool>,
    worker_cells: Vec<AtomicU64>,
    engine_done: AtomicBool,
}

/// A bound-but-not-yet-running sweep server. [`SweepServer::run`] blocks
/// until a `drain` or `shutdown` request completes; [`SweepServer::spawn`]
/// does the same on a background thread.
pub struct SweepServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl SweepServer {
    /// Bind on `addr` (use port 0 for an OS-assigned port) with a pool
    /// sized by `AVR_SERVER_THREADS`, defaulting to the host parallelism.
    pub fn bind(addr: &str) -> std::io::Result<SweepServer> {
        let host = thread::available_parallelism().map_or(1, |n| n.get());
        let threads = env_threads("AVR_SERVER_THREADS", host);
        Self::bind_with(addr, SimPool::new(threads))
    }

    /// Bind with an explicit pool (tests pin widths this way).
    pub fn bind_with(addr: &str, pool: SimPool) -> std::io::Result<SweepServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = pool.threads();
        let state = Arc::new(ServerState {
            pool,
            runner: run_on_design_in,
            addr,
            queue: Mutex::new(QueueState { phase: Phase::Accepting, queue: VecDeque::new() }),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(0),
            current: Mutex::new(None),
            completed_cells: AtomicU64::new(0),
            failed_cells: AtomicU64::new(0),
            worker_busy: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            worker_cells: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            engine_done: AtomicBool::new(false),
        });
        Ok(SweepServer { listener, state })
    }

    /// Simulate cells with `runner` instead of [`run_on_design_in`]. No
    /// cell that passes submit validation panics, so the loopback tests
    /// reach the failure-containment path through a runner that panics on
    /// a chosen cell.
    pub fn with_runner(mut self, runner: CellRunner) -> SweepServer {
        Arc::get_mut(&mut self.state).expect("the server is not running yet").runner = runner;
        self
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Pool width serving batches.
    pub fn threads(&self) -> usize {
        self.state.pool.threads()
    }

    /// Serve until drained or shut down. Each connection gets a reader
    /// (requests) and a writer (replies + subscribed events) thread;
    /// batches execute on the engine thread's pool, one at a time.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let engine = {
            let state = state.clone();
            thread::spawn(move || {
                engine_loop(&state);
                state.engine_done.store(true, Ordering::SeqCst);
                // Unblock the acceptor with a throwaway connection.
                let _ = TcpStream::connect(state.addr);
            })
        };
        for conn in self.listener.incoming() {
            if state.engine_done.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let state = state.clone();
            thread::spawn(move || session(&state, stream));
        }
        engine.join().map_err(|_| std::io::Error::other("engine panicked"))
    }

    /// Run on a background thread, returning the bound address and the
    /// handle to join after a drain/shutdown request.
    pub fn spawn(self) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
        let addr = self.local_addr();
        (addr, thread::spawn(move || self.run()))
    }
}

/// Pop-and-run until the phase forbids further work. On `drain` the queue
/// empties first; on `shutdown` queued jobs are sealed as fully cancelled
/// without touching the pool.
fn engine_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if q.phase == Phase::Shutdown {
                    let leftovers: Vec<_> = q.queue.drain(..).collect();
                    drop(q);
                    for job in leftovers {
                        job.ctl.cancel();
                        job.finish(0, 0, job.specs.len());
                    }
                    return;
                }
                if let Some(job) = q.queue.pop_front() {
                    break job;
                }
                if q.phase == Phase::Draining {
                    return;
                }
                q = state.queue_cv.wait(q).unwrap();
            }
        };
        run_batch(state, &job);
    }
}

/// Execute one batch on the pool. Cells were validated at submit, so the
/// registry lookups here cannot fail; a cell that panics anyway is caught
/// and reported as failed (see the module docs).
fn run_batch(state: &Arc<ServerState>, job: &Arc<JobState>) {
    *state.current.lock().unwrap() = Some(job.clone());
    {
        let mut inner = job.inner.lock().unwrap();
        inner.phase = JobPhase::Running;
    }

    struct Resolved {
        workload: Box<dyn Workload>,
        cfg: SystemConfig,
        spec_index: usize,
        weight: u64,
    }
    let mut seen: HashSet<(&str, BenchScale)> = HashSet::new();
    let resolved: Vec<Resolved> = job
        .specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let workload =
                workload_by_name(&spec.workload, spec.scale).expect("validated at submit");
            let cfg = spec.config(&base_config(spec.scale));
            let hint = workload.cost_hint().max(1);
            let weight = if seen.insert((workload.name(), spec.scale)) {
                hint.saturating_mul(GOLDEN_CELL_BOOST)
            } else {
                hint
            };
            Resolved { workload, cfg, spec_index: i, weight }
        })
        .collect();

    let out = state.pool.run_jobs_weighted_ctl(
        resolved.len(),
        |i| resolved[i].weight,
        |ctx| {
            let r = &resolved[ctx.index];
            let spec = &job.specs[r.spec_index];
            state.worker_busy[ctx.worker].store(true, Ordering::Relaxed);
            // Unwind safety: the cell's `System` is its own and dropped on
            // unwind, the workload is read-only, and the golden cache holds
            // its map lock only for a probe (a panicking golden run leaves
            // its once-cell empty for the next caller).
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                (state.runner)(r.workload.as_ref(), &r.cfg, spec.design, spec.layout)
            }));
            let line = match &run {
                Ok(metrics) => {
                    state.completed_cells.fetch_add(1, Ordering::Relaxed);
                    proto::result_event(job.id, r.spec_index, spec, metrics)
                }
                Err(payload) => {
                    job.failed.fetch_add(1, Ordering::Relaxed);
                    state.failed_cells.fetch_add(1, Ordering::Relaxed);
                    proto::cell_error_event(job.id, r.spec_index, spec, &panic_message(&**payload))
                }
            };
            job.publish(r.spec_index, line);
            state.worker_cells[ctx.worker].fetch_add(1, Ordering::Relaxed);
            state.worker_busy[ctx.worker].store(false, Ordering::Relaxed);
            run.is_ok()
        },
        &job.ctl,
    );
    let completed = out.iter().filter(|cell| **cell == Some(true)).count();
    let failed = out.iter().filter(|cell| **cell == Some(false)).count();
    job.finish(completed, failed, resolved.len() - completed - failed);
    *state.current.lock().unwrap() = None;
}

/// The text of a caught panic's payload (`panic!` with a literal or a
/// formatted message; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-text panic payload");
    format!("cell panicked: {text}")
}

/// What one bounded read of a request line found.
enum RequestLine {
    /// A complete line, newline stripped, is in the buffer.
    Line,
    /// More than [`MAX_REQUEST_LINE`] bytes without a newline.
    TooLong,
    /// The peer closed the connection.
    Eof,
}

/// Read one request line into `buf`, reading at most one byte past
/// [`MAX_REQUEST_LINE`] so an over-long line is detected without
/// buffering it.
fn read_request(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> io::Result<RequestLine> {
    buf.clear();
    if reader.take(MAX_REQUEST_LINE as u64 + 1).read_until(b'\n', buf)? == 0 {
        return Ok(RequestLine::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    // (A final line without a newline is still a request.)
    Ok(RequestLine::Line)
}

/// One connection: a blocking reader loop here, plus a writer thread that
/// owns the outbox channel. Responses and subscribed events share the
/// outbox, so everything a session emits is serialized in one place.
fn session(state: &Arc<ServerState>, stream: TcpStream) {
    // Failing to set it costs latency only (see the module docs).
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = mpsc::channel::<Arc<String>>();
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        // Everything already queued goes out before one flush.
        while let Ok(first) = rx.recv() {
            let sent = std::iter::once(first)
                .chain(std::iter::from_fn(|| rx.try_recv().ok()))
                .try_for_each(|line| {
                    out.write_all(line.as_bytes())?;
                    out.write_all(b"\n")
                })
                .and_then(|()| out.flush());
            if sent.is_err() {
                // Dropping `rx` makes every subsequent subscriber send
                // fail, which prunes this session from job fan-out lists.
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        match read_request(&mut reader, &mut buf) {
            Ok(RequestLine::Line) => {}
            Ok(RequestLine::TooLong) => {
                // The rest of the line is unread and there is no request
                // boundary to resync on: reply, then end the session.
                let _ = tx.send(Arc::new(proto::error_response(&format!(
                    "request line exceeds {MAX_REQUEST_LINE} bytes; closing the connection"
                ))));
                break;
            }
            Ok(RequestLine::Eof) | Err(_) => break,
        }
        let handled = match std::str::from_utf8(&buf) {
            Ok(line) if line.trim().is_empty() => Ok(()),
            Ok(line) => dispatch(state, line, &tx),
            Err(_) => tx
                .send(Arc::new(proto::error_response("request line is not valid UTF-8")))
                .map_err(|_| ()),
        };
        if handled.is_err() {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
}

/// Handle one request line; `Err` means the outbox is gone and the session
/// should end. A malformed request earns an error reply, never a
/// disconnect — the connection stays usable.
fn dispatch(
    state: &Arc<ServerState>,
    line: &str,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    match Request::parse(line) {
        Err(e) => send(proto::error_response(&e)),
        Ok(Request::Submit { tag, cells }) => submit(state, tag, cells, tx),
        Ok(Request::Results { job, from }) => results(state, job, from, tx),
        Ok(Request::Status) => send(status(state)),
        Ok(Request::Cancel { job }) => send(cancel(state, job)),
        Ok(Request::Drain) => send(set_phase(state, Phase::Draining)),
        Ok(Request::Shutdown) => send(set_phase(state, Phase::Shutdown)),
    }
}

fn submit(
    state: &Arc<ServerState>,
    tag: Option<String>,
    cells: Vec<CellSpec>,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    if state.queue.lock().unwrap().phase != Phase::Accepting {
        return send(proto::error_response("server is draining; submissions are closed"));
    }
    for (i, spec) in cells.iter().enumerate() {
        let Some(w) = workload_by_name(&spec.workload, spec.scale) else {
            return send(proto::error_response(&format!(
                "cell {i}: unknown workload {:?} (known: {})",
                spec.workload,
                workload_names().join(", ")
            )));
        };
        if !w.layouts().contains(&spec.layout) {
            return send(proto::error_response(&format!(
                "cell {i}: workload {:?} does not support layout {:?}",
                spec.workload,
                spec.layout.label()
            )));
        }
    }
    let id = state.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    let cell_count = cells.len();
    let job = Arc::new(JobState::new(id, tag, cells));
    state.jobs.lock().unwrap().insert(id, job.clone());
    // Ack before enqueueing: the job cannot start until it is queued, so
    // the ack is guaranteed to precede this job's events on this session.
    send(
        Json::obj([
            ("ok", Json::from(true)),
            ("job", Json::from(id)),
            ("cells", Json::from(cell_count)),
        ])
        .render(),
    )?;
    job.subscribe(0, tx);
    let mut q = state.queue.lock().unwrap();
    q.queue.push_back(job);
    state.queue_cv.notify_all();
    Ok(())
}

fn results(
    state: &Arc<ServerState>,
    job_id: u64,
    from: usize,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    let Some(job) = state.jobs.lock().unwrap().get(&job_id).cloned() else {
        return send(proto::error_response(&format!("unknown job {job_id}")));
    };
    let label = job.inner.lock().unwrap().phase.label();
    send(
        Json::obj([
            ("ok", Json::from(true)),
            ("job", Json::from(job_id)),
            ("cells", Json::from(job.specs.len())),
            ("state", Json::from(label)),
        ])
        .render(),
    )?;
    job.subscribe(from, tx);
    Ok(())
}

fn cancel(state: &Arc<ServerState>, job_id: u64) -> String {
    let Some(job) = state.jobs.lock().unwrap().get(&job_id).cloned() else {
        return proto::error_response(&format!("unknown job {job_id}"));
    };
    // In-flight cells run to completion (results are never torn); cells
    // not yet started are skipped. Cancelling a done job is a no-op.
    job.ctl.cancel();
    Json::obj([("ok", Json::from(true)), ("job", Json::from(job_id))]).render()
}

fn status(state: &Arc<ServerState>) -> String {
    let (phase, queue_depth) = {
        let q = state.queue.lock().unwrap();
        (q.phase, q.queue.len())
    };
    let running = match state.current.lock().unwrap().as_ref() {
        Some(job) => Json::obj([
            ("job", Json::from(job.id)),
            ("cells", Json::from(job.specs.len())),
            ("started", Json::from(job.ctl.started())),
            ("finished", Json::from(job.ctl.finished())),
            ("in_flight", Json::from(job.ctl.in_flight())),
        ]),
        None => Json::Null,
    };
    let workers = Json::Arr(
        (0..state.pool.threads())
            .map(|w| {
                Json::obj([
                    ("busy", Json::from(state.worker_busy[w].load(Ordering::Relaxed))),
                    ("cells_done", Json::from(state.worker_cells[w].load(Ordering::Relaxed))),
                ])
            })
            .collect(),
    );
    let jobs =
        Json::Arr(state.jobs.lock().unwrap().values().map(|job| job.status_json()).collect());
    Json::obj([
        ("ok", Json::from(true)),
        ("phase", Json::from(phase.label())),
        ("queue_depth", Json::from(queue_depth)),
        ("running", running),
        ("workers", Json::from(state.pool.threads())),
        ("worker_util", workers),
        ("completed_cells", Json::from(state.completed_cells.load(Ordering::Relaxed))),
        ("failed_cells", Json::from(state.failed_cells.load(Ordering::Relaxed))),
        (
            "golden",
            Json::obj([
                ("hits", Json::from(golden::stats::hits())),
                ("computes", Json::from(golden::stats::computes())),
            ]),
        ),
        ("jobs", jobs),
    ])
    .render()
}

fn set_phase(state: &Arc<ServerState>, to: Phase) -> String {
    let mut q = state.queue.lock().unwrap();
    if to > q.phase {
        q.phase = to;
    }
    let phase = q.phase;
    if phase == Phase::Shutdown {
        for job in &q.queue {
            job.ctl.cancel();
        }
        if let Some(job) = state.current.lock().unwrap().as_ref() {
            job.ctl.cancel();
        }
    }
    state.queue_cv.notify_all();
    Json::obj([("ok", Json::from(true)), ("phase", Json::from(phase.label()))]).render()
}
