//! A small blocking client for the NDJSON service: connect, send typed
//! requests, stream frames back. Used by the `serve_client` example, the CI
//! smoke step, the E22 load generator, and the test suite.

use crate::protocol::{Frame, FrameReader, ReadFrame, RequestEnvelope, DEFAULT_MAX_FRAME_BYTES};
use bitlevel_json::Json;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One request's full frame stream, with the raw lines preserved so callers
/// can assert byte-identical responses.
#[derive(Debug, Clone)]
pub struct Transaction {
    /// Every frame of the response, in arrival order, as `(raw line,
    /// parsed frame)`; the last entry is the terminal frame.
    pub frames: Vec<(String, Frame)>,
}

impl Transaction {
    /// The terminal result payload, when the request succeeded.
    pub fn result(&self) -> Option<&Json> {
        match &self.frames.last()?.1 {
            Frame::Result { payload, .. } => Some(payload),
            _ => None,
        }
    }

    /// The terminal error, when the request failed.
    pub fn error(&self) -> Option<&crate::protocol::ErrorFrame> {
        match &self.frames.last()?.1 {
            Frame::Error { error, .. } => Some(error),
            _ => None,
        }
    }

    /// The progress payloads, in order.
    pub fn progress_frames(&self) -> impl Iterator<Item = &Json> {
        self.frames.iter().filter_map(|(_, f)| match f {
            Frame::Progress { payload, .. } => Some(payload),
            _ => None,
        })
    }

    /// The raw line of the terminal frame (for bit-identity assertions).
    pub fn terminal_line(&self) -> Option<&str> {
        self.frames.last().map(|(raw, _)| raw.as_str())
    }
}

/// A blocking NDJSON client over one TCP connection.
#[derive(Debug)]
pub struct ServeClient {
    writer: TcpStream,
    reader: FrameReader<TcpStream>,
}

impl ServeClient {
    /// Connects to the server at `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let writer = TcpStream::connect(addr)?;
        // Request/response lines are small; Nagle + delayed ACK would add
        // tens of milliseconds per round trip.
        writer.set_nodelay(true)?;
        let reader = FrameReader::new(writer.try_clone()?, DEFAULT_MAX_FRAME_BYTES);
        Ok(ServeClient { writer, reader })
    }

    /// Sets a read timeout for [`ServeClient::next_frame`]; `None` blocks
    /// indefinitely.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one typed request line.
    pub fn send(&mut self, env: &RequestEnvelope) -> io::Result<()> {
        self.send_raw(&env.to_line())
    }

    /// Sends one raw line verbatim (the test hook for malformed/oversized
    /// frames).
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.writer.write_all(&bytes)
    }

    /// Reads the next frame: `Ok(None)` on clean EOF, an
    /// `io::ErrorKind::TimedOut` error when a read timeout is set and
    /// elapses, and a parse failure as `InvalidData`.
    pub fn next_frame(&mut self) -> io::Result<Option<(String, Frame)>> {
        loop {
            match self.reader.read_frame()? {
                ReadFrame::Frame(raw) => {
                    if raw.trim().is_empty() {
                        continue;
                    }
                    let frame = Frame::parse(&raw).map_err(|e| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("unparseable frame {raw:?}: {e}"),
                        )
                    })?;
                    return Ok(Some((raw, frame)));
                }
                ReadFrame::TooLarge { dropped } => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("server frame exceeded the client cap ({dropped} bytes)"),
                    ));
                }
                ReadFrame::TimedOut => {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "no frame within the read timeout",
                    ));
                }
                ReadFrame::Eof => return Ok(None),
            }
        }
    }

    /// Sends `env` and collects frames until its terminal frame (result or
    /// error). Frames for other ids — there are none on a well-behaved
    /// single-threaded connection — are ignored.
    pub fn request_collect(&mut self, env: &RequestEnvelope) -> io::Result<Transaction> {
        self.send(env)?;
        let mut frames = Vec::new();
        loop {
            match self.next_frame()? {
                Some((raw, frame)) => {
                    let terminal = frame.is_terminal();
                    let matches = frame.id().is_none_or(|id| id == env.id);
                    if matches {
                        frames.push((raw, frame));
                        if terminal {
                            return Ok(Transaction { frames });
                        }
                    }
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before the terminal frame",
                    ))
                }
            }
        }
    }
}
