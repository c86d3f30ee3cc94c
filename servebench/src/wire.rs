//! The benchmark's second connection: a closed-loop client that stamps
//! every pushed `Delta` with its arrival time.
//!
//! `most_server::Client` buffers pushed deltas without a timestamp, so
//! freshness (`delta_lag_p50_ms`) cannot be measured through it.  This
//! connection is built from the same public protocol pieces
//! (`FrameReader`, `encode_frame`, `decode_response`) and additionally
//! keeps each reply's raw line, so byte-equality gates compare what was
//! on the wire.

use most_server::protocol::{decode_response, encode_frame, DEFAULT_MAX_FRAME};
use most_server::{connect_with_retry, CqDelta, FrameReader, Request, Response};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Harness-level error: any socket, framing or server failure, rendered.
pub type Res<T> = Result<T, String>;

/// A reply with the bytes it arrived as (newline stripped).
#[derive(Debug)]
pub struct Reply {
    /// The decoded frame.
    pub response: Response,
    /// The raw reply line.
    pub line: String,
}

/// A connected session that time-stamps pushed frames.
#[derive(Debug)]
pub struct Conn {
    reader: FrameReader<TcpStream>,
    writer: TcpStream,
    /// Pushed deltas with their arrival instants, in arrival order.
    pub pushed: Vec<(Instant, CqDelta)>,
    /// Highest cumulative drop count a `Lagged` frame reported.
    pub lagged: u64,
}

impl Conn {
    /// Connects with the client crate's retrying connect.
    pub fn connect(addr: SocketAddr) -> Res<Conn> {
        let stream = connect_with_retry(addr, 20).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            reader: FrameReader::new(stream, DEFAULT_MAX_FRAME),
            writer,
            pushed: Vec::new(),
            lagged: 0,
        })
    }

    /// Reads one frame.  Pushed frames are stamped and buffered
    /// (`Ok(None)`), as is a read timeout; a reply is returned.  A frame
    /// over the 64 KiB cap is an error, never a truncation.
    fn read(&mut self) -> Res<Option<Reply>> {
        let line = match self.reader.next_frame() {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Ok(None)
            }
            Err(e) => return Err(format!("read: {e}")),
            Ok(None) => return Err("connection closed".into()),
            Ok(Some(Err(fe))) => return Err(format!("frame: {fe:?}")),
            Ok(Some(Ok(line))) => line,
        };
        let at = Instant::now();
        match decode_response(&line).map_err(|fe| format!("decode: {fe:?}"))? {
            Response::Delta(d) => self.pushed.push((at, d)),
            Response::Lagged { dropped } => self.lagged = self.lagged.max(dropped),
            response => return Ok(Some(Reply { response, line })),
        }
        Ok(None)
    }

    /// Sends a request and blocks for its reply.
    pub fn request(&mut self, req: &Request) -> Res<Reply> {
        self.writer.write_all(encode_frame(req).as_bytes()).map_err(|e| format!("write: {e}"))?;
        loop {
            if let Some(reply) = self.read()? {
                return Ok(reply);
            }
        }
    }

    fn set_timeout(&self, wait: Option<Duration>) -> Res<()> {
        self.reader.get_ref().set_read_timeout(wait).map_err(|e| format!("timeout: {e}"))
    }

    /// Drains pushed frames until `wait` passes with none arriving.
    pub fn poll(&mut self, wait: Duration) -> Res<()> {
        self.set_timeout(Some(wait))?;
        let result = loop {
            let before = self.pushed.len();
            match self.read() {
                Ok(None) if self.pushed.len() > before => continue,
                Ok(None) => break Ok(()),
                Ok(Some(reply)) => break Err(format!("unsolicited reply {:?}", reply.response)),
                Err(e) => break Err(e),
            }
        };
        self.set_timeout(None)?;
        result
    }
}
