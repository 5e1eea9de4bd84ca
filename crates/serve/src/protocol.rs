//! The NDJSON wire protocol: typed requests, typed response frames, and the
//! size-capped frame reader.
//!
//! One request or response per line. Clients send [`RequestEnvelope`] lines;
//! the server answers each with zero or more [`Frame::Progress`] lines
//! followed by exactly one terminal line — [`Frame::Result`] on success or
//! [`Frame::Error`] otherwise. Frames for one request always appear in
//! order; the connection is serviced by a single worker, so frames of
//! different requests never interleave.
//!
//! Malformed lines, unknown requests, and out-of-range parameters are
//! answered with a typed [`ErrorFrame`] and the connection stays open — the
//! worker never panics and never silently drops a frame. Lines longer than
//! the reader's cap are discarded (to the next newline) and answered with
//! [`ErrorKind::FrameTooLarge`].

use bitlevel_json::Json;
use bitlevel_mapping::PaperDesign;
use bitlevel_systolic::{SimBackend, MAX_LANES};
use std::io::{self, Read};

/// Default cap on one request line, in bytes. Requests are small typed
/// objects; a megabyte is already three orders of magnitude of headroom.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// Largest matrix dimension `u` the service accepts.
pub const MAX_U: i64 = 8;

/// Largest word length `p` the service accepts for evaluation/campaigns.
pub const MAX_P: usize = 12;

/// Largest word length the service accepts for exploration (the schedule
/// search space grows as `(2p+1)^5`).
pub const MAX_EXPLORE_P: usize = 4;

/// Largest Monte Carlo trial count per request.
pub const MAX_TRIALS: usize = 65_536;

/// Monte Carlo trials per streamed progress chunk.
pub const MC_CHUNK: usize = 64;

/// One of the paper's Section 4.2 matmul designs, as named on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignSpec {
    /// Fig. 4: the time-optimal long-wire design.
    TimeOptimal,
    /// Fig. 5: the nearest-neighbour design.
    NearestNeighbour,
}

impl DesignSpec {
    /// Wire name (`"time-optimal"` / `"nearest-neighbour"`).
    pub fn wire_name(&self) -> &'static str {
        match self {
            DesignSpec::TimeOptimal => "time-optimal",
            DesignSpec::NearestNeighbour => "nearest-neighbour",
        }
    }

    /// Parses a wire name.
    pub fn from_wire(s: &str) -> Option<DesignSpec> {
        match s {
            "time-optimal" => Some(DesignSpec::TimeOptimal),
            "nearest-neighbour" => Some(DesignSpec::NearestNeighbour),
            _ => None,
        }
    }

    /// The mapping-crate design this spec names.
    pub fn to_design(self) -> PaperDesign {
        match self {
            DesignSpec::TimeOptimal => PaperDesign::TimeOptimal,
            DesignSpec::NearestNeighbour => PaperDesign::NearestNeighbour,
        }
    }
}

/// Which fault campaign to run and its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CampaignMode {
    /// Exhaustive dual-engine single-fault sweep.
    Single {
        /// Operand/plan seed.
        seed: u64,
    },
    /// Lane-packed exhaustive sweep, `width` cases per compiled walk.
    Batched {
        /// Operand seed.
        seed: u64,
        /// Lane width (clamped to `1..=MAX_LANES` by the engine).
        width: usize,
    },
    /// Seeded Monte Carlo multi-fault campaign, streamed in
    /// [`MC_CHUNK`]-trial chunks.
    MonteCarlo {
        /// Campaign seed.
        seed: u64,
        /// Total trials.
        trials: usize,
        /// Per-point, per-bit transient-flip rate.
        rate: f64,
    },
}

/// A typed request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Evaluate one paper design on any [`SimBackend`].
    Evaluate {
        /// Matrix dimension.
        u: i64,
        /// Word length.
        p: usize,
        /// Which Section 4.2 design.
        design: DesignSpec,
        /// Which simulation engine.
        backend: SimBackend,
    },
    /// Run the default design-space exploration, streaming frontier points.
    Explore {
        /// Matrix dimension.
        u: i64,
        /// Word length.
        p: usize,
        /// Engine verifying each frontier design.
        backend: SimBackend,
    },
    /// Run a fault campaign, streaming chunk progress where chunked.
    FaultCampaign {
        /// Matrix dimension.
        u: i64,
        /// Word length.
        p: usize,
        /// Which Section 4.2 design.
        design: DesignSpec,
        /// Which campaign.
        mode: CampaignMode,
    },
    /// Server + cache metrics snapshot.
    Stats,
    /// Graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
}

impl Request {
    /// Short tag for metrics and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Evaluate { .. } => "evaluate",
            Request::Explore { .. } => "explore",
            Request::FaultCampaign { .. } => "fault-campaign",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One request line: a client-chosen id, an optional deadline, and the body.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen correlation id, echoed on every frame of the response.
    pub id: u64,
    /// Cooperative deadline in milliseconds; `None` uses the server default,
    /// `Some(0)` expires before any work starts (a deterministic timeout).
    pub deadline_ms: Option<u64>,
    /// The request body.
    pub request: Request,
}

/// Error taxonomy of the service, as carried in [`ErrorFrame::kind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not a well-formed request object.
    MalformedRequest,
    /// The line exceeded the server's frame-size cap and was discarded.
    FrameTooLarge,
    /// The request parsed but its parameters are unsupported/out of range.
    BadRequest,
    /// The request's deadline expired before the work completed.
    Timeout,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The handler failed internally (the worker survives).
    Internal,
}

impl ErrorKind {
    /// Wire string.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorKind::MalformedRequest => "malformed-request",
            ErrorKind::FrameTooLarge => "frame-too-large",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Timeout => "timeout",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire string.
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        match s {
            "malformed-request" => Some(ErrorKind::MalformedRequest),
            "frame-too-large" => Some(ErrorKind::FrameTooLarge),
            "bad-request" => Some(ErrorKind::BadRequest),
            "timeout" => Some(ErrorKind::Timeout),
            "shutting-down" => Some(ErrorKind::ShuttingDown),
            "internal" => Some(ErrorKind::Internal),
            _ => None,
        }
    }
}

/// A typed error response: what went wrong and a human-readable detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The error class.
    pub kind: ErrorKind,
    /// Free-form detail (parse position, offending value, reason).
    pub detail: String,
}

impl ErrorFrame {
    /// Shorthand constructor.
    pub fn new(kind: ErrorKind, detail: impl Into<String>) -> ErrorFrame {
        ErrorFrame {
            kind,
            detail: detail.into(),
        }
    }
}

/// One server→client NDJSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Incremental progress for a long-running request.
    Progress {
        /// The request's id.
        id: u64,
        /// 0-based frame sequence within the request.
        seq: u64,
        /// Stage-specific payload.
        payload: Json,
    },
    /// The terminal success frame.
    Result {
        /// The request's id.
        id: u64,
        /// The request's result payload.
        payload: Json,
    },
    /// The terminal (or line-level) error frame. `id` is `None` when the
    /// offending line was too broken to recover one.
    Error {
        /// The request's id, when recoverable.
        id: Option<u64>,
        /// The typed error.
        error: ErrorFrame,
    },
}

impl Frame {
    /// The NDJSON line for this frame (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Frame::Progress { id, seq, payload } => Json::obj(vec![
                ("id", Json::from(*id)),
                ("frame", Json::str("progress")),
                ("seq", Json::from(*seq)),
                ("payload", payload.clone()),
            ])
            .render(),
            Frame::Result { id, payload } => Json::obj(vec![
                ("id", Json::from(*id)),
                ("frame", Json::str("result")),
                ("payload", payload.clone()),
            ])
            .render(),
            Frame::Error { id, error } => Json::obj(vec![
                ("id", id.map(Json::from).unwrap_or(Json::Null)),
                ("frame", Json::str("error")),
                ("kind", Json::str(error.kind.as_str())),
                ("detail", Json::str(error.detail.clone())),
            ])
            .render(),
        }
    }

    /// Parses one server line back into a frame (the client side).
    pub fn parse(line: &str) -> Result<Frame, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let tag = v
            .get("frame")
            .and_then(Json::as_str)
            .ok_or("missing \"frame\" tag")?;
        match tag {
            "progress" => Ok(Frame::Progress {
                id: v.get("id").and_then(Json::as_u64).ok_or("missing id")?,
                seq: v.get("seq").and_then(Json::as_u64).ok_or("missing seq")?,
                payload: v.get("payload").cloned().unwrap_or(Json::Null),
            }),
            "result" => Ok(Frame::Result {
                id: v.get("id").and_then(Json::as_u64).ok_or("missing id")?,
                payload: v.get("payload").cloned().unwrap_or(Json::Null),
            }),
            "error" => {
                let kind = v
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(ErrorKind::from_wire)
                    .ok_or("missing or unknown error kind")?;
                Ok(Frame::Error {
                    id: v.get("id").and_then(Json::as_u64),
                    error: ErrorFrame::new(
                        kind,
                        v.get("detail").and_then(Json::as_str).unwrap_or(""),
                    ),
                })
            }
            other => Err(format!("unknown frame tag {other:?}")),
        }
    }

    /// The request id this frame answers, when it carries one.
    pub fn id(&self) -> Option<u64> {
        match self {
            Frame::Progress { id, .. } | Frame::Result { id, .. } => Some(*id),
            Frame::Error { id, .. } => *id,
        }
    }

    /// True for the terminal frames of a request ([`Frame::Result`] and
    /// [`Frame::Error`]).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Frame::Progress { .. })
    }
}

/// Renders a backend for the wire: `"interpreted"`, `"compiled"`,
/// `"compiled-batch:<width>"`, `"partitioned:<workers>"`.
pub fn backend_wire_name(backend: SimBackend) -> String {
    match backend {
        SimBackend::Interpreted => "interpreted".to_string(),
        SimBackend::Compiled => "compiled".to_string(),
        SimBackend::CompiledBatch { width } => format!("compiled-batch:{width}"),
        SimBackend::Partitioned { workers } => format!("partitioned:{workers}"),
    }
}

/// Parses the wire backend names produced by [`backend_wire_name`].
pub fn backend_from_wire(s: &str) -> Option<SimBackend> {
    match s {
        "interpreted" => return Some(SimBackend::Interpreted),
        "compiled" => return Some(SimBackend::Compiled),
        _ => {}
    }
    if let Some(w) = s.strip_prefix("compiled-batch:") {
        return w
            .parse()
            .ok()
            .map(|width| SimBackend::CompiledBatch { width });
    }
    if let Some(k) = s.strip_prefix("partitioned:") {
        return k
            .parse()
            .ok()
            .map(|workers| SimBackend::Partitioned { workers });
    }
    None
}

impl RequestEnvelope {
    /// The NDJSON line for this request (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut pairs = vec![("id", Json::from(self.id))];
        if let Some(d) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::from(d)));
        }
        pairs.push(("request", Json::str(self.request.kind())));
        match &self.request {
            Request::Evaluate {
                u,
                p,
                design,
                backend,
            } => {
                pairs.push(("u", Json::Int(*u)));
                pairs.push(("p", Json::from(*p)));
                pairs.push(("design", Json::str(design.wire_name())));
                pairs.push(("backend", Json::Str(backend_wire_name(*backend))));
            }
            Request::Explore { u, p, backend } => {
                pairs.push(("u", Json::Int(*u)));
                pairs.push(("p", Json::from(*p)));
                pairs.push(("backend", Json::Str(backend_wire_name(*backend))));
            }
            Request::FaultCampaign { u, p, design, mode } => {
                pairs.push(("u", Json::Int(*u)));
                pairs.push(("p", Json::from(*p)));
                pairs.push(("design", Json::str(design.wire_name())));
                match mode {
                    CampaignMode::Single { seed } => {
                        pairs.push(("mode", Json::str("single")));
                        pairs.push(("seed", Json::from(*seed)));
                    }
                    CampaignMode::Batched { seed, width } => {
                        pairs.push(("mode", Json::str("batched")));
                        pairs.push(("seed", Json::from(*seed)));
                        pairs.push(("width", Json::from(*width)));
                    }
                    CampaignMode::MonteCarlo { seed, trials, rate } => {
                        pairs.push(("mode", Json::str("monte-carlo")));
                        pairs.push(("seed", Json::from(*seed)));
                        pairs.push(("trials", Json::from(*trials)));
                        pairs.push(("rate", Json::from(*rate)));
                    }
                }
            }
            Request::Stats | Request::Shutdown => {}
        }
        Json::obj(pairs).render()
    }

    /// Parses one client line. Errors are typed: a line that is not valid
    /// JSON (or not an object with an id) is [`ErrorKind::MalformedRequest`];
    /// a well-formed object with unsupported values is
    /// [`ErrorKind::BadRequest`]. The recovered id (when any) rides along so
    /// the error frame can still be correlated.
    pub fn from_line(line: &str) -> Result<RequestEnvelope, (Option<u64>, ErrorFrame)> {
        let v = Json::parse(line).map_err(|e| {
            (
                None,
                ErrorFrame::new(ErrorKind::MalformedRequest, e.to_string()),
            )
        })?;
        if !v.is_obj() {
            return Err((
                None,
                ErrorFrame::new(ErrorKind::MalformedRequest, "request must be a JSON object"),
            ));
        }
        let id = v.get("id").and_then(Json::as_u64);
        let malformed = |detail: &str| {
            (
                id,
                ErrorFrame::new(ErrorKind::MalformedRequest, detail.to_string()),
            )
        };
        let bad = |detail: String| (id, ErrorFrame::new(ErrorKind::BadRequest, detail));
        let id_val = id.ok_or_else(|| malformed("missing or non-integer \"id\""))?;
        let tag = v
            .get("request")
            .and_then(Json::as_str)
            .ok_or_else(|| malformed("missing \"request\" tag"))?;
        let deadline_ms = match v.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(d) => Some(
                d.as_u64()
                    .ok_or_else(|| malformed("\"deadline_ms\" must be a non-negative integer"))?,
            ),
        };

        let shape = |explore: bool| -> Result<(i64, usize), (Option<u64>, ErrorFrame)> {
            let u = v
                .get("u")
                .and_then(Json::as_i64)
                .ok_or_else(|| malformed("missing integer \"u\""))?;
            let p = v
                .get("p")
                .and_then(Json::as_u64)
                .ok_or_else(|| malformed("missing integer \"p\""))? as usize;
            if !(1..=MAX_U).contains(&u) {
                return Err(bad(format!("u={u} outside 1..={MAX_U}")));
            }
            let p_cap = if explore { MAX_EXPLORE_P } else { MAX_P };
            if !(1..=p_cap).contains(&p) {
                return Err(bad(format!("p={p} outside 1..={p_cap}")));
            }
            Ok((u, p))
        };
        let design = || -> Result<DesignSpec, (Option<u64>, ErrorFrame)> {
            match v.get("design") {
                None => Ok(DesignSpec::TimeOptimal),
                Some(d) => d
                    .as_str()
                    .and_then(DesignSpec::from_wire)
                    .ok_or_else(|| bad(format!("unknown design {d:?}"))),
            }
        };
        let backend = || -> Result<SimBackend, (Option<u64>, ErrorFrame)> {
            match v.get("backend") {
                None => Ok(SimBackend::Compiled),
                Some(b) => b
                    .as_str()
                    .and_then(backend_from_wire)
                    .ok_or_else(|| bad(format!("unknown backend {b:?}"))),
            }
        };
        let seed = || {
            optional(&v, "seed", Json::as_u64)
                .map(|s| s.unwrap_or(0))
                .map_err(&bad)
        };

        let request = match tag {
            "evaluate" => {
                let (u, p) = shape(false)?;
                Request::Evaluate {
                    u,
                    p,
                    design: design()?,
                    backend: backend()?,
                }
            }
            "explore" => {
                let (u, p) = shape(true)?;
                Request::Explore {
                    u,
                    p,
                    backend: backend()?,
                }
            }
            "fault-campaign" => {
                let (u, p) = shape(false)?;
                let mode = optional(&v, "mode", Json::as_str).map_err(&bad)?;
                let mode = match mode.unwrap_or("single") {
                    "single" => CampaignMode::Single { seed: seed()? },
                    "batched" => CampaignMode::Batched {
                        seed: seed()?,
                        width: optional(&v, "width", Json::as_u64)
                            .map_err(&bad)?
                            .map_or(MAX_LANES, |w| w as usize),
                    },
                    "monte-carlo" => {
                        let trials = optional(&v, "trials", Json::as_u64)
                            .map_err(&bad)?
                            .map_or(256, |t| t as usize);
                        if trials == 0 || trials > MAX_TRIALS {
                            return Err(bad(format!("trials={trials} outside 1..={MAX_TRIALS}")));
                        }
                        let rate = optional(&v, "rate", Json::as_f64)
                            .map_err(&bad)?
                            .unwrap_or(1e-3);
                        if !(rate > 0.0 && rate <= 1.0) {
                            return Err(bad(format!("rate={rate} outside (0, 1]")));
                        }
                        CampaignMode::MonteCarlo {
                            seed: seed()?,
                            trials,
                            rate,
                        }
                    }
                    other => return Err(bad(format!("unknown campaign mode {other:?}"))),
                };
                Request::FaultCampaign {
                    u,
                    p,
                    design: design()?,
                    mode,
                }
            }
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => return Err(bad(format!("unknown request {other:?}"))),
        };
        Ok(RequestEnvelope {
            id: id_val,
            deadline_ms,
            request,
        })
    }
}

/// An optional request field: `Ok(None)` when absent or null, so the caller
/// takes its default; the parsed value when `parse` accepts it; otherwise a
/// bad-request detail naming the field — a present value of the wrong type
/// or sign never falls back to the default.
fn optional<'a, T>(
    v: &'a Json,
    name: &str,
    parse: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => parse(x)
            .map(Some)
            .ok_or_else(|| format!("invalid \"{name}\": {}", x.render())),
    }
}

/// What one [`FrameReader::read_frame`] call produced.
#[derive(Debug)]
pub enum ReadFrame {
    /// One complete line (without its newline).
    Frame(String),
    /// A line exceeded the cap; it was discarded up to its newline.
    TooLarge {
        /// Bytes thrown away (best-effort count).
        dropped: usize,
    },
    /// The underlying socket's read timeout elapsed with no complete line —
    /// the poll tick on which the server checks its shutdown flag.
    TimedOut,
    /// The peer closed the connection.
    Eof,
}

/// A newline-delimited frame reader with a hard per-line byte cap.
///
/// Oversized lines do not kill the connection: the reader switches to
/// discard mode, drops bytes until the next newline, reports
/// [`ReadFrame::TooLarge`] once, and resumes normally — satisfying the
/// "typed error, worker stays alive" contract. Socket read timeouts surface
/// as [`ReadFrame::TimedOut`] so callers can poll a shutdown flag between
/// blocking reads.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    max_frame: usize,
    discarding: bool,
    dropped: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wraps `inner` with a per-line cap of `max_frame` bytes.
    pub fn new(inner: R, max_frame: usize) -> FrameReader<R> {
        FrameReader {
            inner,
            buf: Vec::new(),
            max_frame: max_frame.max(1),
            discarding: false,
            dropped: 0,
        }
    }

    /// Reads until one complete line, a cap overflow, a read timeout, or EOF.
    pub fn read_frame(&mut self) -> io::Result<ReadFrame> {
        let mut chunk = [0u8; 4096];
        loop {
            // A complete line already buffered?
            if let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                let rest = self.buf.split_off(nl + 1);
                let mut line = std::mem::replace(&mut self.buf, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                if self.discarding {
                    self.discarding = false;
                    let dropped = self.dropped + line.len();
                    self.dropped = 0;
                    return Ok(ReadFrame::TooLarge { dropped });
                }
                if line.len() > self.max_frame {
                    return Ok(ReadFrame::TooLarge {
                        dropped: line.len(),
                    });
                }
                return Ok(ReadFrame::Frame(
                    String::from_utf8_lossy(&line).into_owned(),
                ));
            }
            // Over the cap with no newline yet: discard until one shows up.
            if !self.discarding && self.buf.len() > self.max_frame {
                self.discarding = true;
                self.dropped = self.buf.len();
                self.buf.clear();
            } else if self.discarding && !self.buf.is_empty() {
                self.dropped += self.buf.len();
                self.buf.clear();
            }
            match self.inner.read(&mut chunk) {
                Ok(0) => return Ok(ReadFrame::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(ReadFrame::TimedOut)
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let envs = vec![
            RequestEnvelope {
                id: 1,
                deadline_ms: Some(5000),
                request: Request::Evaluate {
                    u: 3,
                    p: 3,
                    design: DesignSpec::TimeOptimal,
                    backend: SimBackend::Compiled,
                },
            },
            RequestEnvelope {
                id: 2,
                deadline_ms: None,
                request: Request::Explore {
                    u: 2,
                    p: 2,
                    backend: SimBackend::Partitioned { workers: 4 },
                },
            },
            RequestEnvelope {
                id: 3,
                deadline_ms: Some(0),
                request: Request::FaultCampaign {
                    u: 2,
                    p: 2,
                    design: DesignSpec::NearestNeighbour,
                    mode: CampaignMode::MonteCarlo {
                        seed: 9,
                        trials: 128,
                        rate: 0.01,
                    },
                },
            },
            RequestEnvelope {
                id: 4,
                deadline_ms: None,
                request: Request::Stats,
            },
            RequestEnvelope {
                id: 5,
                deadline_ms: None,
                request: Request::Shutdown,
            },
        ];
        for env in envs {
            let line = env.to_line();
            let back = RequestEnvelope::from_line(&line).unwrap_or_else(|e| {
                panic!("{line} failed to parse back: {e:?}");
            });
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = vec![
            Frame::Progress {
                id: 7,
                seq: 0,
                payload: Json::obj(vec![("stage", Json::str("cache"))]),
            },
            Frame::Result {
                id: 7,
                payload: Json::obj(vec![("cycles", Json::Int(13))]),
            },
            Frame::Error {
                id: Some(7),
                error: ErrorFrame::new(ErrorKind::Timeout, "deadline expired"),
            },
            Frame::Error {
                id: None,
                error: ErrorFrame::new(ErrorKind::MalformedRequest, "bad json"),
            },
        ];
        for f in frames {
            let line = f.render();
            assert_eq!(Frame::parse(&line).unwrap(), f, "{line}");
        }
    }

    #[test]
    fn malformed_and_bad_requests_are_typed() {
        // Unparseable line: malformed, no id.
        let (id, e) = RequestEnvelope::from_line("{not json").unwrap_err();
        assert_eq!((id, e.kind), (None, ErrorKind::MalformedRequest));
        // Parseable but missing the tag: malformed, id recovered.
        let (id, e) = RequestEnvelope::from_line(r#"{"id":9}"#).unwrap_err();
        assert_eq!((id, e.kind), (Some(9), ErrorKind::MalformedRequest));
        // Out-of-range parameters: bad request.
        let (id, e) = RequestEnvelope::from_line(r#"{"id":3,"request":"evaluate","u":99,"p":3}"#)
            .unwrap_err();
        assert_eq!((id, e.kind), (Some(3), ErrorKind::BadRequest));
        // Unknown backend: bad request with the value named.
        let (_, e) = RequestEnvelope::from_line(
            r#"{"id":3,"request":"evaluate","u":3,"p":3,"backend":"quantum"}"#,
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::BadRequest);
        assert!(e.detail.contains("quantum"), "{}", e.detail);
        // A present but invalid optional field is a bad request naming the
        // field, never its default.
        let campaign = r#"{"id":4,"request":"fault-campaign","u":3,"p":3"#;
        for (fields, name) in [
            (r#""seed":"x""#, "seed"),
            (r#""seed":-1"#, "seed"),
            (r#""mode":"batched","width":2.5"#, "width"),
            (r#""mode":"monte-carlo","trials":-5"#, "trials"),
            (r#""mode":"monte-carlo","rate":"high""#, "rate"),
            (r#""mode":7"#, "mode"),
        ] {
            let line = format!("{campaign},{fields}}}");
            let (id, e) = RequestEnvelope::from_line(&line).unwrap_err();
            assert_eq!((id, e.kind), (Some(4), ErrorKind::BadRequest), "{line}");
            assert!(
                e.detail.contains(&format!("\"{name}\"")),
                "{line}: {}",
                e.detail
            );
        }
        // Absent (or null) optional fields keep their defaults.
        let env = RequestEnvelope::from_line(&format!(
            r#"{campaign},"mode":"monte-carlo","seed":null}}"#
        ))
        .unwrap();
        assert_eq!(
            env.request,
            Request::FaultCampaign {
                u: 3,
                p: 3,
                design: DesignSpec::TimeOptimal,
                mode: CampaignMode::MonteCarlo {
                    seed: 0,
                    trials: 256,
                    rate: 1e-3,
                },
            }
        );
    }

    #[test]
    fn defaults_fill_in() {
        let env =
            RequestEnvelope::from_line(r#"{"id":1,"request":"evaluate","u":3,"p":3}"#).unwrap();
        assert_eq!(
            env.request,
            Request::Evaluate {
                u: 3,
                p: 3,
                design: DesignSpec::TimeOptimal,
                backend: SimBackend::Compiled,
            }
        );
        assert_eq!(env.deadline_ms, None);
    }

    #[test]
    fn frame_reader_splits_lines_and_caps_length() {
        let input = format!("short\r\n{}\nafter\n", "x".repeat(64));
        let mut r = FrameReader::new(input.as_bytes(), 16);
        match r.read_frame().unwrap() {
            ReadFrame::Frame(l) => assert_eq!(l, "short"),
            other => panic!("{other:?}"),
        }
        match r.read_frame().unwrap() {
            ReadFrame::TooLarge { dropped } => assert!(dropped >= 64, "{dropped}"),
            other => panic!("{other:?}"),
        }
        // The worker stays in sync: the next line parses normally.
        match r.read_frame().unwrap() {
            ReadFrame::Frame(l) => assert_eq!(l, "after"),
            other => panic!("{other:?}"),
        }
        match r.read_frame().unwrap() {
            ReadFrame::Eof => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn backend_wire_names_round_trip() {
        for b in [
            SimBackend::Interpreted,
            SimBackend::Compiled,
            SimBackend::CompiledBatch { width: 32 },
            SimBackend::Partitioned { workers: 4 },
        ] {
            assert_eq!(backend_from_wire(&backend_wire_name(b)), Some(b));
        }
        assert_eq!(backend_from_wire("quantum"), None);
    }
}
