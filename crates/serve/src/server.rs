//! The evaluation service: a TCP listener, a bounded accept queue, a fixed
//! worker pool, and the request handlers.
//!
//! Architecture (DESIGN §4.9):
//!
//! ```text
//! acceptor thread ──► bounded queue (Mutex<VecDeque> + Condvar) ──► N workers
//!                                                                    │
//!                      one Arc-shared CompileCache ◄─────────────────┘
//! ```
//!
//! The acceptor only accepts and enqueues; when the queue is full it blocks
//! (TCP backlog becomes the second-level backpressure). Each worker owns one
//! connection at a time and services its requests strictly in order, so a
//! request's progress frames never interleave with another's. Every handler
//! builds its `DesignFlow` around the server's single [`CompileCache`]
//! (single-flight inside the cache makes N concurrent identical misses cost
//! one compile), and cache attribution per request is reported in a
//! *progress* frame so the terminal result frame stays bit-identical across
//! identical requests regardless of cache temperature.
//!
//! Shutdown is cooperative: the `Shutdown` request (or
//! [`ServerHandle::shutdown`]) flips an atomic flag, nudges the acceptor
//! with a loopback connect, and wakes the queue. Workers finish the request
//! they are on (in-flight work drains), answer any further frames with
//! `shutting-down`, and exit on their next poll tick.

use crate::metrics::{cache_stats_json, ServerMetrics};
use crate::protocol::{
    CampaignMode, DesignSpec, ErrorFrame, ErrorKind, Frame, FrameReader, ReadFrame, Request,
    RequestEnvelope, DEFAULT_MAX_FRAME_BYTES, MC_CHUNK,
};
use bitlevel_cache::{CacheStats, CompileCache};
use bitlevel_core::{ArchitectureReport, DesignFlow};
use bitlevel_json::Json;
use bitlevel_systolic::{NullSink, SimBackend};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server configuration. `Default` gives an ephemeral loopback port, eight
/// workers, a 64-connection accept queue, 1 MiB frames, no default
/// deadline, and a memory-only cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `"127.0.0.1:0"` for an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Accept-queue capacity; a full queue blocks the acceptor.
    pub queue_cap: usize,
    /// Per-line byte cap; longer lines answer `frame-too-large`.
    pub max_frame_bytes: usize,
    /// Deadline applied when a request carries none (milliseconds);
    /// `0` means unlimited.
    pub default_deadline_ms: u64,
    /// Optional persistent cache directory (`CompileCache::with_disk_dir`).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Socket read-timeout tick on which idle workers re-check the
    /// shutdown flag (milliseconds).
    pub poll_interval_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 8,
            queue_cap: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            default_deadline_ms: 0,
            cache_dir: None,
            poll_interval_ms: 100,
        }
    }
}

/// A cooperative per-request deadline, checked at work-chunk boundaries.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    start: Instant,
    limit: Option<Duration>,
}

impl Deadline {
    fn new(request_ms: Option<u64>, default_ms: u64) -> Deadline {
        let limit = match request_ms {
            Some(ms) => Some(Duration::from_millis(ms)),
            None if default_ms > 0 => Some(Duration::from_millis(default_ms)),
            None => None,
        };
        Deadline {
            start: Instant::now(),
            limit,
        }
    }

    /// True once the budget is spent. A zero budget expires before any work
    /// starts — the deterministic immediate timeout used by the tests.
    fn expired(&self) -> bool {
        self.limit.is_some_and(|l| self.start.elapsed() >= l)
    }

    fn timeout_error(&self, stage: &str) -> ErrorFrame {
        ErrorFrame::new(
            ErrorKind::Timeout,
            format!(
                "deadline of {:?} expired at stage {stage:?}",
                self.limit.unwrap_or(Duration::ZERO)
            ),
        )
    }
}

/// Everything the acceptor, workers, and handle share.
struct ServerState {
    config: ServeConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    metrics: ServerMetrics,
    cache: CompileCache,
    cache_at_start: CacheStats,
}

impl ServerState {
    fn trigger_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.queue_cv.notify_all();
            // Unblock the acceptor: a throwaway loopback connection makes
            // `accept` return so it can observe the flag.
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A running server: its address, shared cache, metrics, and thread handles.
pub struct ServerHandle {
    state: Arc<ServerState>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Binds and starts the service described by `config`; returns once the
/// listener, acceptor thread, and worker pool are live.
pub fn serve(config: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let cache = match &config.cache_dir {
        Some(dir) => CompileCache::with_disk_dir(dir),
        None => CompileCache::new(),
    };
    let cache_at_start = cache.snapshot();
    let workers = config.workers.max(1);
    let state = Arc::new(ServerState {
        config,
        addr,
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        metrics: ServerMetrics::new(),
        cache,
        cache_at_start,
    });

    let acceptor = {
        let state = Arc::clone(&state);
        thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(listener, &state))?
    };
    let worker_handles = (0..workers)
        .map(|i| {
            let state = Arc::clone(&state);
            thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&state))
        })
        .collect::<io::Result<Vec<_>>>()?;

    Ok(ServerHandle {
        state,
        acceptor: Some(acceptor),
        workers: worker_handles,
    })
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// The server's shared compile cache (for counter assertions).
    pub fn cache(&self) -> &CompileCache {
        &self.state.cache
    }

    /// The server's metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.state.metrics
    }

    /// True once shutdown has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutting_down()
    }

    /// Triggers graceful shutdown (idempotent): in-flight requests finish,
    /// then the acceptor and workers exit.
    pub fn shutdown(&self) {
        self.state.trigger_shutdown();
    }

    /// Blocks until every server thread has exited. Call
    /// [`ServerHandle::shutdown`] first (or send a `Shutdown` request).
    pub fn join(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: TcpListener, state: &ServerState) {
    for stream in listener.incoming() {
        if state.shutting_down() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let mut q = state.queue.lock().unwrap();
        while q.len() >= state.config.queue_cap && !state.shutting_down() {
            let (guard, _) = state
                .queue_cv
                .wait_timeout(q, Duration::from_millis(200))
                .unwrap();
            q = guard;
        }
        if state.shutting_down() {
            break;
        }
        q.push_back(stream);
        state
            .metrics
            .queue_depth
            .store(q.len() as u64, Ordering::Relaxed);
        state.queue_cv.notify_all();
    }
}

fn worker_loop(state: &ServerState) {
    loop {
        let conn = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if let Some(c) = q.pop_front() {
                    state
                        .metrics
                        .queue_depth
                        .store(q.len() as u64, Ordering::Relaxed);
                    state.queue_cv.notify_all();
                    break c;
                }
                if state.shutting_down() {
                    return;
                }
                let (guard, _) = state
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(200))
                    .unwrap();
                q = guard;
            }
        };
        state.metrics.connections.fetch_add(1, Ordering::Relaxed);
        serve_connection(state, conn);
        if state.shutting_down() {
            return;
        }
    }
}

/// Writes one frame line. A write error means the peer is gone; the caller
/// drops the connection.
fn send(out: &mut TcpStream, frame: &Frame) -> io::Result<()> {
    let mut line = frame.render();
    line.push('\n');
    out.write_all(line.as_bytes())
}

fn serve_connection(state: &ServerState, stream: TcpStream) {
    // Frames are small; Nagle + delayed ACK would add tens of milliseconds
    // of latency to every response line.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        state.config.poll_interval_ms.max(1),
    )));
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = FrameReader::new(reader_stream, state.config.max_frame_bytes);
    let mut out = stream;
    loop {
        match reader.read_frame() {
            Ok(ReadFrame::Frame(line)) => {
                if !handle_line(state, &mut out, &line) {
                    break;
                }
            }
            Ok(ReadFrame::TooLarge { dropped }) => {
                state
                    .metrics
                    .oversized_frames
                    .fetch_add(1, Ordering::Relaxed);
                state.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let frame = Frame::Error {
                    id: None,
                    error: ErrorFrame::new(
                        ErrorKind::FrameTooLarge,
                        format!(
                            "line exceeded the {}-byte cap ({dropped} bytes discarded)",
                            state.config.max_frame_bytes
                        ),
                    ),
                };
                if send(&mut out, &frame).is_err() {
                    break;
                }
            }
            Ok(ReadFrame::TimedOut) => {
                if state.shutting_down() {
                    break;
                }
            }
            Ok(ReadFrame::Eof) | Err(_) => break,
        }
    }
}

/// Handles one request line. Returns `false` when the connection should
/// close (write failure, or the ack of a `Shutdown` request).
fn handle_line(state: &ServerState, out: &mut TcpStream, line: &str) -> bool {
    if line.trim().is_empty() {
        return true;
    }
    let env = match RequestEnvelope::from_line(line) {
        Ok(env) => env,
        Err((id, error)) => {
            match error.kind {
                ErrorKind::MalformedRequest => {
                    state
                        .metrics
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                }
                _ => state.metrics.count_request("other"),
            }
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return send(out, &Frame::Error { id, error }).is_ok();
        }
    };
    if state.shutting_down() {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let frame = Frame::Error {
            id: Some(env.id),
            error: ErrorFrame::new(ErrorKind::ShuttingDown, "server is draining"),
        };
        return send(out, &frame).is_ok();
    }

    state.metrics.count_request(env.request.kind());
    if matches!(env.request, Request::Shutdown) {
        let ack = Frame::Result {
            id: env.id,
            payload: Json::obj(vec![("shutting_down", Json::Bool(true))]),
        };
        let _ = send(out, &ack);
        state.trigger_shutdown();
        return false;
    }

    state.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
    let started = Instant::now();
    let deadline = Deadline::new(env.deadline_ms, state.config.default_deadline_ms);
    let mut ctx = RequestCtx {
        state,
        out,
        id: env.id,
        seq: 0,
        write_failed: false,
    };
    let result = dispatch(state, &mut ctx, &env.request, &deadline);
    let write_failed = ctx.write_failed;
    let terminal = match result {
        Ok(payload) => Frame::Result {
            id: env.id,
            payload,
        },
        Err(error) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            if error.kind == ErrorKind::Timeout {
                state.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            }
            Frame::Error {
                id: Some(env.id),
                error,
            }
        }
    };
    let sent = send(out, &terminal).is_ok();
    state
        .metrics
        .record_latency_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
    state.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
    sent && !write_failed
}

/// Per-request streaming context: sequenced progress frames on the
/// connection's socket.
struct RequestCtx<'a> {
    state: &'a ServerState,
    out: &'a mut TcpStream,
    id: u64,
    seq: u64,
    write_failed: bool,
}

impl RequestCtx<'_> {
    fn progress(&mut self, payload: Json) {
        if self.write_failed {
            return;
        }
        let frame = Frame::Progress {
            id: self.id,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.state
            .metrics
            .progress_frames
            .fetch_add(1, Ordering::Relaxed);
        if send(self.out, &frame).is_err() {
            self.write_failed = true;
        }
    }
}

fn dispatch(
    state: &ServerState,
    ctx: &mut RequestCtx<'_>,
    request: &Request,
    deadline: &Deadline,
) -> Result<Json, ErrorFrame> {
    match request {
        Request::Evaluate {
            u,
            p,
            design,
            backend,
        } => handle_evaluate(state, ctx, *u, *p, *design, *backend, deadline),
        Request::Explore { u, p, backend } => {
            handle_explore(state, ctx, *u, *p, *backend, deadline)
        }
        Request::FaultCampaign { u, p, design, mode } => {
            handle_campaign(state, ctx, *u, *p, *design, *mode, deadline)
        }
        Request::Stats => Ok(state
            .metrics
            .render(&state.cache.snapshot(), &state.cache_at_start)),
        Request::Shutdown => unreachable!("handled before dispatch"),
    }
}

fn flow_for(
    state: &ServerState,
    u: i64,
    p: usize,
    backend: SimBackend,
) -> Result<DesignFlow, ErrorFrame> {
    DesignFlow::matmul(u, p)
        .with_cache(state.cache.clone())
        .with_validated_backend(backend)
        .map_err(|e| ErrorFrame::new(ErrorKind::BadRequest, e.to_string()))
}

fn handle_evaluate(
    state: &ServerState,
    ctx: &mut RequestCtx<'_>,
    u: i64,
    p: usize,
    design: DesignSpec,
    backend: SimBackend,
    deadline: &Deadline,
) -> Result<Json, ErrorFrame> {
    if deadline.expired() {
        return Err(deadline.timeout_error("evaluate"));
    }
    let flow = flow_for(state, u, p, backend)?;
    let before = state.cache.snapshot();
    let rep = flow.evaluate_paper_design(design.to_design());
    let after = state.cache.snapshot();
    if rep.backend_used.is_fallback() {
        state.metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
    }
    // Cache attribution is request-history-dependent, so it rides in a
    // progress frame; the result frame below holds only request-determined
    // fields and is bit-identical across identical requests.
    ctx.progress(Json::obj(vec![
        ("stage", Json::str("cache")),
        (
            "outcome",
            rep.cache
                .as_ref()
                .map(|c| Json::str(c.outcome.clone()))
                .unwrap_or(Json::Null),
        ),
        ("delta", cache_stats_json(&after.delta(&before))),
    ]));
    Ok(report_payload(&rep))
}

fn handle_explore(
    state: &ServerState,
    ctx: &mut RequestCtx<'_>,
    u: i64,
    p: usize,
    backend: SimBackend,
    deadline: &Deadline,
) -> Result<Json, ErrorFrame> {
    if deadline.expired() {
        return Err(deadline.timeout_error("explore"));
    }
    let flow = flow_for(state, u, p, backend)?;
    let (spaces, config) = flow.default_exploration();
    let report = flow
        .explore_streamed(&spaces, &config, &mut NullSink, |pt| {
            ctx.progress(Json::obj(vec![
                ("stage", Json::str("frontier-point")),
                ("name", Json::str(pt.report.name.clone())),
                ("machine", Json::str(pt.point.machine.clone())),
                ("time", Json::Int(pt.point.time)),
                ("processors", Json::from(pt.point.processors)),
                ("physical_pes", Json::from(pt.point.physical_pes)),
                ("physical_time", Json::Int(pt.point.physical_time)),
                ("wire", Json::Int(pt.point.max_wire_length)),
                ("verified", Json::Bool(pt.verified())),
            ]));
        })
        .map_err(|e| ErrorFrame::new(ErrorKind::Internal, e.to_string()))?;
    for d in &report.designs {
        if d.report.backend_used.is_fallback() {
            state.metrics.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
    }
    if deadline.expired() {
        return Err(deadline.timeout_error("explore-verify"));
    }
    let frontier: Vec<Json> = report
        .designs
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("machine", Json::str(d.point.machine.clone())),
                ("time", Json::Int(d.point.time)),
                ("processors", Json::from(d.point.processors)),
                ("physical_pes", Json::from(d.point.physical_pes)),
                ("physical_time", Json::Int(d.point.physical_time)),
                ("wire", Json::Int(d.point.max_wire_length)),
                ("cycles", Json::Int(d.report.run.cycles)),
                ("backend", Json::Str(d.report.backend_used.to_string())),
                ("verified", Json::Bool(d.verified())),
            ])
        })
        .collect();
    Ok(Json::obj(vec![
        ("designs", Json::from(report.designs.len())),
        ("all_verified", Json::Bool(report.all_verified())),
        ("frontier", Json::Arr(frontier)),
        (
            "stats",
            Json::obj(vec![
                ("spaces", Json::from(report.stats.spaces)),
                ("machines", Json::from(report.stats.machines)),
                ("exhaustive", json_u128(report.stats.exhaustive)),
                ("full_checks", json_u128(report.stats.full_checks)),
                ("pruned_pairs", Json::from(report.stats.pruned_pairs)),
                ("feasible_pairs", Json::from(report.stats.feasible_pairs)),
            ]),
        ),
    ]))
}

fn handle_campaign(
    state: &ServerState,
    ctx: &mut RequestCtx<'_>,
    u: i64,
    p: usize,
    design: DesignSpec,
    mode: CampaignMode,
    deadline: &Deadline,
) -> Result<Json, ErrorFrame> {
    if deadline.expired() {
        return Err(deadline.timeout_error("fault-campaign"));
    }
    let flow = flow_for(state, u, p, SimBackend::Compiled)?;
    let paper = design.to_design();
    match mode {
        CampaignMode::Single { seed } => {
            let rep = flow.single_fault_campaign(paper, seed);
            ctx.progress(Json::obj(vec![
                ("stage", Json::str("campaign")),
                ("cases", Json::from(rep.total)),
            ]));
            Ok(Json::obj(vec![
                ("mode", Json::str("single")),
                ("design", Json::str(rep.design.clone())),
                ("seed", Json::from(rep.seed)),
                ("total", Json::from(rep.total)),
                ("masked", Json::from(rep.masked)),
                ("detected", Json::from(rep.detected)),
                ("sdc", Json::from(rep.sdc)),
                ("engine_mismatches", Json::from(rep.engine_mismatches)),
                (
                    "classifications_partition",
                    Json::Bool(rep.classifications_partition()),
                ),
            ]))
        }
        CampaignMode::Batched { seed, width } => {
            let counts = flow.batched_single_fault_counts(paper, seed, width);
            ctx.progress(Json::obj(vec![
                ("stage", Json::str("campaign")),
                ("cases", Json::from(counts.total)),
                ("walks", Json::from(counts.walks)),
            ]));
            Ok(Json::obj(vec![
                ("mode", Json::str("batched")),
                ("design", Json::str(format!("{paper:?}"))),
                ("seed", Json::from(seed)),
                ("width", Json::from(counts.width)),
                ("walks", Json::from(counts.walks)),
                ("total", Json::from(counts.total)),
                ("masked", Json::from(counts.masked)),
                ("detected", Json::from(counts.detected)),
                ("sdc", Json::from(counts.sdc)),
                (
                    "classifications_partition",
                    Json::Bool(counts.classifications_partition()),
                ),
            ]))
        }
        CampaignMode::MonteCarlo { seed, trials, rate } => {
            // Chunked so long campaigns stream progress and honour their
            // deadline between chunks. Chunk i reseeds with `seed + i`, so a
            // given (seed, trials, rate) request is deterministic regardless
            // of chunk boundaries chosen here.
            let (mut done, mut masked, mut detected, mut sdc, mut mismatches) = (0, 0, 0, 0, 0);
            let mut chunks = 0u64;
            while done < trials {
                if deadline.expired() {
                    return Err(deadline.timeout_error("monte-carlo-chunk"));
                }
                let n = MC_CHUNK.min(trials - done);
                let rep = flow.monte_carlo_campaign(paper, seed + chunks, n, rate);
                done += n;
                masked += rep.masked;
                detected += rep.detected;
                sdc += rep.sdc;
                mismatches += rep.engine_mismatches;
                chunks += 1;
                ctx.progress(Json::obj(vec![
                    ("stage", Json::str("campaign-chunk")),
                    ("trials_done", Json::from(done)),
                    ("trials", Json::from(trials)),
                    ("masked", Json::from(masked)),
                    ("detected", Json::from(detected)),
                    ("sdc", Json::from(sdc)),
                ]));
            }
            Ok(Json::obj(vec![
                ("mode", Json::str("monte-carlo")),
                ("design", Json::str(paper.name())),
                ("seed", Json::from(seed)),
                ("rate", Json::from(rate)),
                ("trials", Json::from(trials)),
                ("chunks", Json::from(chunks)),
                ("masked", Json::from(masked)),
                ("detected", Json::from(detected)),
                ("sdc", Json::from(sdc)),
                ("engine_mismatches", Json::from(mismatches)),
            ]))
        }
    }
}

/// The deterministic result payload of an evaluation: every field is a pure
/// function of the request, so identical requests produce byte-identical
/// frames (cache temperature and timing live in the progress frames).
fn report_payload(rep: &ArchitectureReport) -> Json {
    Json::obj(vec![
        ("name", Json::str(rep.name.clone())),
        ("feasible", Json::Bool(rep.feasible)),
        (
            "violations",
            Json::Arr(
                rep.violations
                    .iter()
                    .map(|v| Json::str(v.clone()))
                    .collect(),
            ),
        ),
        ("cycles", Json::Int(rep.run.cycles)),
        ("processors", Json::from(rep.run.processors)),
        ("computations", json_u128(rep.run.computations)),
        ("conflict_free", Json::Bool(rep.run.conflict_free)),
        ("causality_ok", Json::Bool(rep.run.causality_ok)),
        ("utilization", Json::Num(rep.run.utilization)),
        ("peak_parallelism", Json::from(rep.run.peak_parallelism)),
        (
            "link_traffic",
            Json::Arr(
                rep.run
                    .link_traffic
                    .iter()
                    .map(|&t| Json::from(t))
                    .collect(),
            ),
        ),
        ("buffer_cycles", Json::from(rep.run.buffer_cycles)),
        (
            "closed_form_cycles",
            rep.closed_form_cycles.map(Json::Int).unwrap_or(Json::Null),
        ),
        ("max_wire_length", Json::Int(rep.max_wire_length)),
        ("backend", Json::Str(rep.backend_used.to_string())),
    ])
}

/// `u128` counters render as exact integers when they fit `i64`, otherwise
/// as decimal strings (JSON numbers would lose precision).
fn json_u128(v: u128) -> Json {
    i64::try_from(v)
        .map(Json::Int)
        .unwrap_or_else(|_| Json::Str(v.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;

    fn test_server() -> ServerHandle {
        serve(ServeConfig {
            poll_interval_ms: 10,
            ..ServeConfig::default()
        })
        .expect("bind ephemeral test server")
    }

    fn evaluate_req(id: u64) -> RequestEnvelope {
        RequestEnvelope {
            id,
            deadline_ms: None,
            request: Request::Evaluate {
                u: 3,
                p: 3,
                design: DesignSpec::TimeOptimal,
                backend: SimBackend::Compiled,
            },
        }
    }

    #[test]
    fn evaluate_streams_cache_progress_then_deterministic_result() {
        let server = test_server();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let t = client.request_collect(&evaluate_req(1)).unwrap();
        assert!(t.frames.len() >= 2, "progress + result, got {t:?}");
        match &t.frames[0].1 {
            Frame::Progress { payload, .. } => {
                assert_eq!(
                    payload.get("stage").and_then(Json::as_str),
                    Some("cache"),
                    "{payload:?}"
                );
            }
            other => panic!("expected progress frame, got {other:?}"),
        }
        let result = t.result().expect("terminal result frame");
        assert_eq!(result.get("cycles").and_then(Json::as_i64), Some(13));
        assert_eq!(result.get("processors").and_then(Json::as_i64), Some(81));
        assert_eq!(
            result.get("backend").and_then(Json::as_str),
            Some("compiled")
        );
        assert!(result.get("feasible").and_then(Json::as_bool).unwrap());
        server.shutdown();
        server.join();
    }

    #[test]
    fn malformed_oversized_and_unknown_lines_keep_the_worker_alive() {
        let server = serve(ServeConfig {
            max_frame_bytes: 256,
            poll_interval_ms: 10,
            ..ServeConfig::default()
        })
        .unwrap();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();

        // Malformed JSON → typed error, no id.
        client.send_raw("this is not json").unwrap();
        let (_, f) = client.next_frame().unwrap().unwrap();
        match f {
            Frame::Error { id: None, error } => {
                assert_eq!(error.kind, ErrorKind::MalformedRequest)
            }
            other => panic!("{other:?}"),
        }

        // Oversized line → typed frame-too-large.
        let big = format!(r#"{{"id":5,"pad":"{}"}}"#, "y".repeat(1024));
        client.send_raw(&big).unwrap();
        let (_, f) = client.next_frame().unwrap().unwrap();
        match f {
            Frame::Error { error, .. } => assert_eq!(error.kind, ErrorKind::FrameTooLarge),
            other => panic!("{other:?}"),
        }

        // Unknown request tag → typed bad-request carrying the id.
        client.send_raw(r#"{"id":6,"request":"dance"}"#).unwrap();
        let (_, f) = client.next_frame().unwrap().unwrap();
        match f {
            Frame::Error { id: Some(6), error } => {
                assert_eq!(error.kind, ErrorKind::BadRequest)
            }
            other => panic!("{other:?}"),
        }

        // The same connection's worker still answers real work.
        let t = client.request_collect(&evaluate_req(7)).unwrap();
        assert_eq!(
            t.result().unwrap().get("cycles").and_then(Json::as_i64),
            Some(13)
        );
        assert_eq!(server.metrics().oversized_frames.load(Ordering::Relaxed), 1);
        assert_eq!(server.metrics().malformed_frames.load(Ordering::Relaxed), 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn zero_deadline_returns_typed_timeout_frame() {
        let server = test_server();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let mut req = evaluate_req(11);
        req.deadline_ms = Some(0);
        let t = client.request_collect(&req).unwrap();
        match &t.frames.last().unwrap().1 {
            Frame::Error {
                id: Some(11),
                error,
            } => {
                assert_eq!(error.kind, ErrorKind::Timeout, "{error:?}");
                assert!(error.detail.contains("deadline"), "{}", error.detail);
            }
            other => panic!("expected timeout frame, got {other:?}"),
        }
        assert_eq!(server.metrics().timeouts.load(Ordering::Relaxed), 1);
        server.shutdown();
        server.join();
    }

    #[test]
    fn explore_streams_frontier_points_before_the_result() {
        let server = test_server();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let t = client
            .request_collect(&RequestEnvelope {
                id: 21,
                deadline_ms: None,
                request: Request::Explore {
                    u: 2,
                    p: 2,
                    backend: SimBackend::Compiled,
                },
            })
            .unwrap();
        let result = t.result().expect("result frame");
        let designs = result.get("designs").and_then(Json::as_u64).unwrap();
        let points = t
            .progress_frames()
            .filter(|p| p.get("stage").and_then(Json::as_str) == Some("frontier-point"))
            .count() as u64;
        assert!(designs > 0, "{result:?}");
        assert_eq!(points, designs, "one progress frame per frontier design");
        assert_eq!(
            result.get("all_verified").and_then(Json::as_bool),
            Some(true)
        );
        server.shutdown();
        server.join();
    }

    #[test]
    fn monte_carlo_campaign_streams_chunks_and_aggregates() {
        let server = test_server();
        let mut client = ServeClient::connect(server.local_addr()).unwrap();
        let t = client
            .request_collect(&RequestEnvelope {
                id: 31,
                deadline_ms: None,
                request: Request::FaultCampaign {
                    u: 2,
                    p: 2,
                    design: DesignSpec::TimeOptimal,
                    mode: CampaignMode::MonteCarlo {
                        seed: 7,
                        trials: 130,
                        rate: 0.01,
                    },
                },
            })
            .unwrap();
        let result = t.result().expect("result frame");
        assert_eq!(result.get("trials").and_then(Json::as_u64), Some(130));
        assert_eq!(result.get("chunks").and_then(Json::as_u64), Some(3));
        let total = result.get("masked").and_then(Json::as_u64).unwrap()
            + result.get("detected").and_then(Json::as_u64).unwrap()
            + result.get("sdc").and_then(Json::as_u64).unwrap();
        assert_eq!(total, 130, "classifications partition the trials");
        assert_eq!(t.progress_frames().count(), 3, "one frame per chunk");
        server.shutdown();
        server.join();
    }

    #[test]
    fn stats_reports_cache_delta_and_shutdown_request_drains() {
        let server = test_server();
        let addr = server.local_addr();
        let mut client = ServeClient::connect(addr).unwrap();
        client.request_collect(&evaluate_req(41)).unwrap();
        let t = client
            .request_collect(&RequestEnvelope {
                id: 42,
                deadline_ms: None,
                request: Request::Stats,
            })
            .unwrap();
        let stats = t.result().expect("stats payload");
        assert!(stats.get("requests").and_then(Json::as_u64).unwrap() >= 2);
        let delta = stats.get("cache_delta").unwrap();
        assert_eq!(
            delta.get("misses").and_then(Json::as_u64),
            Some(1),
            "one compile since server start: {delta:?}"
        );
        // Graceful shutdown over the wire.
        let t = client
            .request_collect(&RequestEnvelope {
                id: 43,
                deadline_ms: None,
                request: Request::Shutdown,
            })
            .unwrap();
        assert_eq!(
            t.result()
                .unwrap()
                .get("shutting_down")
                .and_then(Json::as_bool),
            Some(true)
        );
        server.join();
        // The listener is gone: new connections are refused (or reset).
        assert!(
            ServeClient::connect(addr)
                .and_then(|mut c| c.request_collect(&evaluate_req(44)))
                .is_err(),
            "server must be down after shutdown"
        );
    }
}
