//! The workspace's one HTTP/1.1 stack over `std::net`: request parser,
//! response writer, server loop and strict client.
//!
//! Hand-rolled on purpose — the workspace takes no external dependencies —
//! and scoped to exactly what the serving tiers need: request-line +
//! headers + `Content-Length` bodies, keep-alive with pipelining, and
//! hard limits on head size, header count and body size so a misbehaving
//! peer cannot balloon memory. Anything outside that envelope is a
//! structured [`ServeError`] (server side) or an `io::Error` (client
//! side), never a panic and never a guess.
//!
//! * [`read_request`] / [`write_response_with`] — the server's framing.
//! * [`Server`] — accept loop, one thread per connection, keep-alive,
//!   answer-then-close on framing errors, a connection cap, an idle
//!   timeout and drain; `fairlens-serve` and the `fairlens-fleet` front
//!   door are both a route fn handed to it.
//! * [`read_response`], [`Conn`], [`Client`], [`one_shot`] — the strict
//!   client: a pipelining connection, a keep-alive pool that retries once
//!   on a stale parked connection, and a fresh-connection probe.
//!
//! Both parsers are generic over [`BufRead`] so the negative paths
//! (oversized heads, truncated bodies, pipelined garbage, slow-loris
//! stalls) are unit-testable on in-memory cursors without sockets.
//!
//! Slow-loris defense: the socket's 250 ms read timeout is only a poll
//! tick; [`Limits::read_deadline`] bounds the *total* time from the
//! first request byte to the final body byte. A client that trickles
//! bytes slower than that gets a structured 408 and the connection is
//! closed. The deadline clock starts at the first poll tick after a
//! request byte arrives, so its practical granularity is one tick.

use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fairlens_json::{parse, Value};

use crate::error::{ErrorKind, ServeError};

/// Hard limits on a single request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes across the request line and all header lines.
    pub max_head: usize,
    /// Maximum number of header lines.
    pub max_headers: usize,
    /// Maximum `Content-Length`.
    pub max_body: usize,
    /// Maximum wall-clock time to receive one full request (head + body),
    /// measured from the first byte. Exceeding it is a 408. Idle
    /// keep-alive connections (no request byte yet) are unaffected.
    pub read_deadline: Duration,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_head: 16 * 1024,
            max_headers: 64,
            max_body: 1024 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component (query string split off into `query`).
    pub path: String,
    /// Raw query string, without the `?` (empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`, or HTTP/1.0 without keep-alive).
    pub close: bool,
}

impl Request {
    /// First header value by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// The body parsed as JSON; a non-UTF-8 or malformed body is a 400.
    pub fn json(&self) -> Result<Value, ServeError> {
        let text = std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::bad_request("body is not UTF-8"))?;
        parse(text).map_err(|e| ServeError::bad_request(format!("invalid JSON: {e}")))
    }

    /// The error for a request no route matched: a 405 when `known_path`,
    /// else a 404.
    pub fn unrouted(&self, known_path: bool) -> ServeError {
        if known_path {
            let msg = format!("{} does not support {}", self.path, self.method);
            ServeError::new(ErrorKind::MethodNotAllowed, msg)
        } else {
            ServeError::new(ErrorKind::NotFound, format!("no route {}", self.path))
        }
    }
}

/// A required string field of a JSON request body; missing is a 400.
pub fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, ServeError> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::bad_request(format!("missing string field \"{key}\"")))
}

/// Why `read_request` returned without a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Complete(Request),
    /// Clean end of stream (or idle give-up) before any request byte.
    Closed,
}

/// Read one request. `on_idle(started)` is invoked on every read timeout
/// tick with whether any byte of the request has arrived; returning `true`
/// abandons the read (the connection is closed by the caller). A timeout
/// *mid-request* that `on_idle` abandons surfaces as `Closed` when nothing
/// had arrived, or as a `bad_request` error when the request was cut off.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    limits: &Limits,
    mut on_idle: impl FnMut(bool) -> bool,
) -> Result<ReadOutcome, ServeError> {
    // Layer the total-read deadline over the caller's idle policy: once
    // any request byte has arrived, every poll tick checks elapsed time
    // against `limits.read_deadline` and abandons the read when it is
    // spent. `Cell`s let the wrapped closure and the error-mapping code
    // below share the flags without fighting the borrow checker.
    let first_tick: Cell<Option<Instant>> = Cell::new(None);
    let expired = Cell::new(false);
    let deadline = limits.read_deadline;
    let mut on_idle = |started: bool| {
        if started {
            let t0 = first_tick.get().unwrap_or_else(|| {
                let now = Instant::now();
                first_tick.set(Some(now));
                now
            });
            if t0.elapsed() >= deadline {
                expired.set(true);
                return true;
            }
        }
        on_idle(started)
    };
    // Abandoned reads surface as truncation; a deadline expiry upgrades
    // that to a structured 408 so the slow client learns why.
    let cut = |what: &str| {
        if expired.get() {
            ServeError::new(
                ErrorKind::RequestTimeout,
                format!("read deadline exceeded while receiving the {what}"),
            )
        } else {
            truncated(what)
        }
    };

    let mut head_bytes = 0usize;
    let mut started = false;

    // Request line. Skip stray CRLFs between pipelined requests (RFC 7230
    // §3.5 tolerance).
    let line = loop {
        match read_line(reader, limits.max_head, &mut on_idle, &mut started)? {
            None => {
                return if started {
                    Err(cut("request line"))
                } else {
                    Ok(ReadOutcome::Closed)
                }
            }
            Some(l) if l.is_empty() => continue,
            Some(l) => break l,
        }
    };
    head_bytes += line.len();
    let line = String::from_utf8(line)
        .map_err(|_| ServeError::bad_request("request line is not UTF-8"))?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) => (m.to_string(), t.to_string(), v.to_string()),
        _ => return Err(ServeError::bad_request(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::bad_request(format!("unsupported version {version:?}")));
    }
    let http10 = version == "HTTP/1.0";

    // Headers.
    let mut headers = Vec::new();
    loop {
        let Some(line) = read_line(reader, limits.max_head - head_bytes, &mut on_idle, &mut started)?
        else {
            return Err(cut("headers"));
        };
        head_bytes += line.len() + 2;
        if head_bytes > limits.max_head {
            return Err(ServeError::new(
                ErrorKind::PayloadTooLarge,
                format!("request head exceeds {} bytes", limits.max_head),
            ));
        }
        if line.is_empty() {
            break;
        }
        if headers.len() >= limits.max_headers {
            return Err(ServeError::new(
                ErrorKind::PayloadTooLarge,
                format!("more than {} headers", limits.max_headers),
            ));
        }
        let line = String::from_utf8(line)
            .map_err(|_| ServeError::bad_request("header is not UTF-8"))?;
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::bad_request(format!("malformed header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // Body.
    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        None => 0usize,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ServeError::bad_request(format!("bad content-length {v:?}")))?,
    };
    if headers.iter().any(|(n, v)| n == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ServeError::bad_request("chunked transfer encoding is not supported"));
    }
    if content_length > limits.max_body {
        return Err(ServeError::new(
            ErrorKind::PayloadTooLarge,
            format!("body of {content_length} bytes exceeds limit {}", limits.max_body),
        ));
    }
    let mut body = vec![0u8; content_length];
    let mut read = 0usize;
    while read < content_length {
        match reader.fill_buf() {
            Ok([]) => return Err(truncated("body")),
            Ok(buf) => {
                let take = buf.len().min(content_length - read);
                body[read..read + take].copy_from_slice(&buf[..take]);
                reader.consume(take);
                read += take;
            }
            Err(e) if is_timeout(&e) => {
                if on_idle(true) {
                    return Err(cut("body"));
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }

    let connection = headers
        .iter()
        .find(|(n, _)| n == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    let close = connection.contains("close") || (http10 && !connection.contains("keep-alive"));

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    Ok(ReadOutcome::Complete(Request { method, path, query, headers, body, close }))
}

/// Read up to CRLF (or bare LF), stripping the terminator. `None` on EOF
/// or when `on_idle` abandons the wait before a terminator arrived.
fn read_line<R: BufRead>(
    reader: &mut R,
    cap: usize,
    on_idle: &mut impl FnMut(bool) -> bool,
    started: &mut bool,
) -> Result<Option<Vec<u8>>, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(None), // EOF
            Ok(buf) => {
                *started = true;
                match buf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        line.extend_from_slice(&buf[..pos]);
                        reader.consume(pos + 1);
                        if line.last() == Some(&b'\r') {
                            line.pop();
                        }
                        if line.len() > cap {
                            return Err(ServeError::new(
                                ErrorKind::PayloadTooLarge,
                                "request head line too long",
                            ));
                        }
                        return Ok(Some(line));
                    }
                    None => {
                        line.extend_from_slice(buf);
                        let n = buf.len();
                        reader.consume(n);
                        if line.len() > cap {
                            return Err(ServeError::new(
                                ErrorKind::PayloadTooLarge,
                                "request head line too long",
                            ));
                        }
                    }
                }
            }
            Err(e) if is_timeout(&e) => {
                if on_idle(*started || !line.is_empty()) {
                    return Ok(None);
                }
            }
            Err(e) => return Err(io_error(e)),
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn truncated(what: &str) -> ServeError {
    ServeError::bad_request(format!("connection closed mid-request ({what})"))
}

fn io_error(e: std::io::Error) -> ServeError {
    ServeError::bad_request(format!("read error: {e}"))
}

/// Reason-phrase for the statuses the server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write a response with `Content-Length` and an optional `Retry-After`
/// header (seconds), flushing the stream. Shed and breaker rejections
/// carry `Retry-After` to tell well-behaved clients when to come back
/// instead of letting them hammer the admission gate.
pub fn write_response_with(
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    retry_after: Option<u64>,
    body: &[u8],
    close: bool,
) -> std::io::Result<()> {
    let retry = match retry_after {
        Some(secs) => format!("retry-after: {secs}\r\n"),
        None => String::new(),
    };
    write!(
        w,
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\n{retry}connection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    )?;
    w.write_all(body)?;
    w.flush()
}

/// Write a route's `response`, announcing `close` in its `connection`
/// header.
fn send(w: &mut impl Write, response: &Response, close: bool) -> io::Result<()> {
    let Response { status, content_type, retry_after, body } = response;
    write_response_with(w, *status, content_type, *retry_after, body, close)
}

/// One response: what a route answers, and what the client reads back.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header.
    pub content_type: String,
    /// `Retry-After` seconds, on shed and breaker rejections.
    pub retry_after: Option<u64>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response without `Retry-After`.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: content_type.into(), retry_after: None, body: body.into() }
    }

    /// The structured JSON answer for `e`, with its status and any
    /// `Retry-After` hint.
    pub fn error(e: &ServeError) -> Self {
        let json = Self::new(e.kind.status(), "application/json", e.to_json());
        Self { retry_after: e.retry_after, ..json }
    }

    /// A `200` carrying `v` as JSON.
    pub fn ok(v: Value) -> Self {
        Self::new(200, "application/json", v.to_json())
    }

    /// The body as text (invalid UTF-8 replaced, never an error).
    pub fn text(&self) -> std::borrow::Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }
}

// ---------------------------------------------------------------------------
// Server

/// The socket read timeout: how often an idle keep-alive connection
/// re-checks the shutdown flag and [`IDLE_TIMEOUT`], and the resolution
/// of [`Limits::read_deadline`].
const POLL_TICK: Duration = Duration::from_millis(250);

/// A [`Server`]'s drain trigger, cheap to clone into route state.
#[derive(Debug, Clone)]
pub struct Shutdown {
    flag: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Shutdown {
    /// Start the drain: set the flag, then self-connect so the blocking
    /// `accept` returns and notices it.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake);
    }

    /// Whether the drain has started.
    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// Most live connections; one more is answered `503 unavailable` and closed.
const MAX_CONNECTIONS: usize = 256;

/// A keep-alive connection with no request byte for this long is closed.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// A bound HTTP/1.1 server: one blocking accept loop and one scoped
/// thread per connection, so a silent or slow client holds only its own
/// thread. Each thread speaks keep-alive HTTP/1.1 and answers every
/// request with the route fn, which also sees framing errors and the
/// [`MAX_CONNECTIONS`] refusal so it can count them.
///
/// Drain ([`Shutdown::trigger`]): stop accepting, let each connection
/// thread finish — in-flight requests are answered with
/// `connection: close`, idle keep-alives close at the next poll tick —
/// join them, and return from [`Server::run`].
pub struct Server {
    listener: TcpListener,
    shutdown: Shutdown,
    name: &'static str,
    limits: Limits,
    /// [`MAX_CONNECTIONS`] and [`IDLE_TIMEOUT`], which unit tests shrink.
    max_connections: usize,
    idle_timeout: Duration,
}

impl Server {
    /// Bind `addr` (port 0 picks an ephemeral port). `name` prefixes the
    /// connection thread names and log lines.
    pub fn bind(addr: &str, name: &'static str, limits: Limits) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let shutdown =
            Shutdown { flag: Arc::new(AtomicBool::new(false)), wake: listener.local_addr()? };
        let (max_connections, idle_timeout) = (MAX_CONNECTIONS, IDLE_TIMEOUT);
        Ok(Self { listener, shutdown, name, limits, max_connections, idle_timeout })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shutdown.wake
    }

    /// The drain trigger.
    pub fn shutdown_handle(&self) -> Shutdown {
        self.shutdown.clone()
    }

    /// Serve until the shutdown handle fires, then drain and return.
    pub fn run<F>(self, route: F) -> io::Result<()>
    where
        F: Fn(Result<&Request, ServeError>) -> Response + Sync,
    {
        let live = AtomicUsize::new(0);
        std::thread::scope(|scope| loop {
            let mut stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(_) if self.shutdown.is_triggered() => break,
                Err(e) => {
                    eprintln!("[{}] accept error: {e}", self.name);
                    continue;
                }
            };
            if self.shutdown.is_triggered() {
                // The self-connect wake (or a late client); stop accepting.
                break;
            }
            if live.load(Ordering::SeqCst) >= self.max_connections {
                let full = format!("server holds {} connections", self.max_connections);
                let refusal = route(Err(ServeError::new(ErrorKind::Unavailable, full)));
                let _ = send(&mut stream, &refusal, true);
                continue;
            }
            live.fetch_add(1, Ordering::SeqCst);
            let (this, route, live) = (&self, &route, &live);
            let spawned = std::thread::Builder::new()
                .name(format!("{}-conn", self.name))
                .spawn_scoped(scope, move || {
                    this.serve_connection(stream, route);
                    live.fetch_sub(1, Ordering::SeqCst);
                });
            if let Err(e) = spawned {
                live.fetch_sub(1, Ordering::SeqCst);
                eprintln!("[{}] cannot spawn a connection thread: {e}", self.name);
            }
        });
        Ok(())
    }

    /// Speak keep-alive HTTP on one socket until close, error, idle or drain.
    fn serve_connection<F>(&self, stream: TcpStream, route: &F)
    where
        F: Fn(Result<&Request, ServeError>) -> Response,
    {
        if stream.set_read_timeout(Some(POLL_TICK)).is_err() {
            return;
        }
        let Ok(read_half) = stream.try_clone() else { return };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        loop {
            let idle_since = Instant::now();
            let abandon_when_idle = |started: bool| {
                !started
                    && (self.shutdown.is_triggered() || idle_since.elapsed() >= self.idle_timeout)
            };
            let (response, close) = match read_request(&mut reader, &self.limits, abandon_when_idle)
            {
                Ok(ReadOutcome::Closed) => return,
                // Framing errors poison the stream: answer, then close.
                Err(e) => (route(Err(e)), true),
                Ok(ReadOutcome::Complete(req)) => {
                    let response = route(Ok(&req));
                    // Draining connections close after the in-flight answer.
                    (response, req.close || self.shutdown.is_triggered())
                }
            };
            if send(&mut writer, &response, close).is_err() || close {
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Client

/// Largest response body the client accepts. A bigger `Content-Length`
/// is rejected before anything is allocated.
const MAX_RESPONSE_BODY: usize = 16 * 1024 * 1024;
/// Largest response head (status line plus headers) the client reads.
const MAX_RESPONSE_HEAD: usize = 16 * 1024;

/// Read one response: status line, headers, `Content-Length` body.
/// Strict: anything that is not a complete, well-framed response is an
/// error (`UnexpectedEof` when the peer hung up early, `InvalidData`
/// otherwise), never a guess. Returns the response and whether the peer
/// announced `connection: close`.
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<(Response, bool)> {
    let mut budget = MAX_RESPONSE_HEAD;
    let line = head_line(reader, &mut budget)?;
    let mut parts = line.splitn(3, ' ');
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") && code.len() == 3 => {
            code.parse::<u16>().ok()
        }
        _ => None,
    }
    .ok_or_else(|| invalid(format!("malformed status line {line:?}")))?;
    let mut content_length = None;
    let mut content_type = String::from("application/octet-stream");
    let mut retry_after = None;
    let mut close = false;
    loop {
        let line = head_line(reader, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid(format!("malformed header {line:?}")));
        };
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize =
                    value.parse().map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                if content_length.is_some_and(|m| m != n) {
                    return Err(invalid("conflicting content-length headers".into()));
                }
                content_length = Some(n);
            }
            "transfer-encoding" if !value.eq_ignore_ascii_case("identity") => {
                return Err(invalid(format!("unsupported transfer-encoding {value:?}")));
            }
            "content-type" => content_type = value.to_string(),
            "retry-after" => retry_after = value.parse().ok(),
            "connection" => {
                close = value.split(',').any(|t| t.trim().eq_ignore_ascii_case("close"));
            }
            _ => {}
        }
    }
    let len = content_length.ok_or_else(|| invalid("response has no content-length".into()))?;
    if len > MAX_RESPONSE_BODY {
        return Err(invalid(format!("content-length {len} exceeds {MAX_RESPONSE_BODY} bytes")));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok((Response { status, content_type, retry_after, body }, close))
}

/// One head line with its CRLF (or bare LF) stripped, charged against
/// the remaining head `budget`. EOF before the terminator is an error.
fn head_line<R: BufRead>(reader: &mut R, budget: &mut usize) -> io::Result<String> {
    let mut line = Vec::new();
    let n = (&mut *reader).take(*budget as u64 + 1).read_until(b'\n', &mut line)?;
    if n > *budget {
        return Err(invalid(format!("response head exceeds {MAX_RESPONSE_HEAD} bytes")));
    }
    if line.pop() != Some(b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response head",
        ));
    }
    *budget -= n;
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| invalid("response head is not UTF-8".into()))
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One client connection with `TCP_NODELAY`; `timeout` bounds the
/// connect and every later read.
pub struct Conn {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect to the first address `addr` resolves to that answers
    /// (`localhost` may resolve to `::1` ahead of `127.0.0.1`).
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolves to nothing");
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(timeout))?;
                    let reader = BufReader::new(stream.try_clone()?);
                    return Ok(Self { addr, reader, writer: stream });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Send one request without waiting for its answer, so callers can
    /// pipeline several before reading.
    pub fn write_request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<()> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            self.addr,
            body.len(),
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body)?;
        self.writer.flush()
    }

    /// Send arbitrary bytes: malformed or partial requests in tests.
    pub fn write_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read the next response; see [`read_response`].
    pub fn read_response(&mut self) -> io::Result<(Response, bool)> {
        read_response(&mut self.reader)
    }

    /// One request, one response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(Response, bool)> {
        self.write_request(method, path, body)?;
        self.read_response()
    }
}

/// A keep-alive client for one server address with a pool of idle
/// connections. A transport error surfaces as `io::Error`, which callers
/// such as the fleet router treat as "this server cannot answer".
///
/// A pooled connection may have been closed by the server since it was
/// parked (the idle timeout, a drain), so a failure on a *pooled*
/// connection is retried once on a fresh one; a failure on a fresh
/// connection propagates. Otherwise every idle-timeout close would look
/// like a crash.
pub struct Client {
    addr: SocketAddr,
    idle: Mutex<Vec<Conn>>,
}

impl Client {
    /// A client for the server at `addr` (e.g. `127.0.0.1:4132`).
    pub fn new(addr: &str) -> io::Result<Self> {
        let addr = addr.parse::<SocketAddr>().map_err(|e| {
            io::Error::new(io::ErrorKind::InvalidInput, format!("bad server address {addr:?}: {e}"))
        })?;
        Ok(Self { addr, idle: Mutex::new(Vec::new()) })
    }

    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send one request and read the full response, each read bounded by
    /// `timeout`.
    pub fn roundtrip(
        &self,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> io::Result<Response> {
        let pooled = self.idle.lock().expect("idle pool lock poisoned").pop();
        let was_pooled = pooled.is_some();
        match self.attempt(pooled, method, path, body, timeout) {
            Err(_) if was_pooled => self.attempt(None, method, path, body, timeout),
            result => result,
        }
    }

    fn attempt(
        &self,
        conn: Option<Conn>,
        method: &str,
        path: &str,
        body: &[u8],
        timeout: Duration,
    ) -> io::Result<Response> {
        let mut conn = match conn {
            Some(c) => {
                c.reader.get_ref().set_read_timeout(Some(timeout))?;
                c
            }
            None => Conn::connect(self.addr, timeout)?,
        };
        let (response, close) = conn.request(method, path, body)?;
        if !close {
            self.idle.lock().expect("idle pool lock poisoned").push(conn);
        }
        Ok(response)
    }

    /// Drop every idle connection (the server is being restarted or
    /// drained; parked sockets to it are dead weight).
    pub fn clear_pool(&self) {
        self.idle.lock().expect("idle pool lock poisoned").clear();
    }
}

/// One request on a fresh connection, closed afterwards — never a pool,
/// so a probe measures the server rather than a parked socket.
pub fn one_shot(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<Response> {
    Ok(Conn::connect(addr, timeout)?.request(method, path, body)?.0)
}

/// `GET /healthz` liveness probe: healthy means a complete `200` within
/// `timeout`.
pub fn probe_healthz(addr: SocketAddr, timeout: Duration) -> bool {
    matches!(one_shot(addr, "GET", "/healthz", b"", timeout), Ok(r) if r.status == 200)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn read(input: &[u8]) -> Result<ReadOutcome, ServeError> {
        read_request(&mut Cursor::new(input.to_vec()), &Limits::default(), |_| false)
    }

    fn expect_request(input: &[u8]) -> Request {
        match read(input).unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_get() {
        let r = expect_request(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
        assert!(!r.close);
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let r = expect_request(
            b"POST /v1/predict?debug=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nwxyz",
        );
        assert_eq!(r.path, "/v1/predict");
        assert_eq!(r.query, "debug=1");
        assert_eq!(r.body, b"wxyz");
        assert!(r.close);
        assert_eq!(r.header("content-length"), Some("4"));
    }

    #[test]
    fn http10_defaults_to_close() {
        let r = expect_request(b"GET / HTTP/1.0\r\n\r\n");
        assert!(r.close);
        let r = expect_request(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!r.close);
    }

    #[test]
    fn keep_alive_pipelining_reads_in_sequence() {
        let mut c = Cursor::new(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\ncontent-length: 2\r\n\r\nhi".to_vec(),
        );
        let l = Limits::default();
        let ReadOutcome::Complete(a) = read_request(&mut c, &l, |_| false).unwrap() else {
            panic!()
        };
        let ReadOutcome::Complete(b) = read_request(&mut c, &l, |_| false).unwrap() else {
            panic!()
        };
        assert_eq!(a.path, "/a");
        assert_eq!(b.path, "/b");
        assert_eq!(b.body, b"hi");
        assert_eq!(read_request(&mut c, &l, |_| false).unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn eof_before_any_byte_is_a_clean_close() {
        assert_eq!(read(b"").unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn pipelined_garbage_is_a_bad_request() {
        for garbage in [
            &b"x\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / HTTP/1.1 EXTRA\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = read(garbage).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{garbage:?} → {err}");
        }
    }

    #[test]
    fn truncated_body_is_a_bad_request() {
        let err = read(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.message.contains("body"), "{err}");
        // ...and a cut-off head too
        let err = read(b"POST / HTT").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut input = b"GET /".to_vec();
        input.extend(std::iter::repeat_n(b'a', 20 * 1024));
        input.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = read(&input).unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);

        let mut input = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..100 {
            input.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
        }
        input.extend_from_slice(b"\r\n");
        let err = read(&input).unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);
    }

    #[test]
    fn oversized_body_is_rejected_up_front() {
        let err = read(b"POST / HTTP/1.1\r\ncontent-length: 9999999999\r\n\r\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::PayloadTooLarge);
        let err = read(b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    /// A reader that yields its chunks separated by `WouldBlock` timeout
    /// ticks, mimicking a slow-loris client on a socket with a read
    /// timeout.
    struct Stutter {
        chunks: Vec<Vec<u8>>,
        next: usize,
        pending_timeout: bool,
    }

    impl Stutter {
        fn new(chunks: &[&[u8]]) -> Self {
            Self {
                chunks: chunks.iter().map(|c| c.to_vec()).collect(),
                next: 0,
                pending_timeout: true,
            }
        }
    }

    impl std::io::Read for Stutter {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("read_request only uses fill_buf/consume")
        }
    }

    impl BufRead for Stutter {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.pending_timeout {
                self.pending_timeout = false;
                return Err(std::io::Error::from(std::io::ErrorKind::WouldBlock));
            }
            self.pending_timeout = true;
            match self.chunks.get(self.next) {
                Some(c) => Ok(c),
                // Out of data: stall forever (the client went quiet
                // without closing), so only the deadline or the caller's
                // idle policy can end the read.
                None => Err(std::io::Error::from(std::io::ErrorKind::WouldBlock)),
            }
        }

        fn consume(&mut self, amt: usize) {
            if amt > 0 {
                let chunk = &mut self.chunks[self.next];
                chunk.drain(..amt);
                if chunk.is_empty() {
                    self.next += 1;
                }
            }
        }
    }

    #[test]
    fn slow_request_trips_the_read_deadline_with_408() {
        // A zero deadline expires on the first timeout tick after the
        // first byte: the stalled header read becomes a 408.
        let limits = Limits { read_deadline: Duration::ZERO, ..Limits::default() };
        let mut r = Stutter::new(&[b"GET /healthz HT", b"TP/1.1\r\n"]);
        let err = read_request(&mut r, &limits, |_| false).unwrap_err();
        assert_eq!(err.kind, ErrorKind::RequestTimeout, "{err}");
        assert!(err.message.contains("read deadline"), "{err}");

        // Same for a body that never finishes arriving.
        let mut r = Stutter::new(&[b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\n", b"abc"]);
        let err = read_request(&mut r, &limits, |_| false).unwrap_err();
        assert_eq!(err.kind, ErrorKind::RequestTimeout, "{err}");
    }

    #[test]
    fn idle_keep_alive_is_not_subject_to_the_read_deadline() {
        // No request byte yet: ticks go to the caller's idle policy, and
        // abandoning the wait is a clean close, never a 408.
        let limits = Limits { read_deadline: Duration::ZERO, ..Limits::default() };
        let mut ticks = 0;
        let mut r = Stutter::new(&[]);
        let out = read_request(&mut r, &limits, |started| {
            assert!(!started);
            ticks += 1;
            ticks >= 2
        });
        assert_eq!(out.unwrap(), ReadOutcome::Closed);
    }

    #[test]
    fn generous_deadline_lets_a_stuttering_request_through() {
        let limits = Limits { read_deadline: Duration::from_secs(30), ..Limits::default() };
        let mut r = Stutter::new(&[b"GET /health", b"z HTTP/1.1\r\n", b"\r\n"]);
        let r = match read_request(&mut r, &limits, |_| false).unwrap() {
            ReadOutcome::Complete(r) => r,
            other => panic!("expected a request, got {other:?}"),
        };
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn responses_carry_length_and_connection() {
        let mut out = Vec::new();
        write_response_with(&mut out, 200, "application/json", None, b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut out = Vec::new();
        write_response_with(&mut out, 404, "application/json", None, b"{}", true).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("connection: close"));
    }
    // --- client-side response parsing -----------------------------------

    fn parse_response(input: &[u8]) -> io::Result<(Response, bool)> {
        read_response(&mut Cursor::new(input.to_vec()))
    }

    fn error_kind(input: &[u8]) -> io::ErrorKind {
        parse_response(input).expect_err("must be rejected").kind()
    }

    #[test]
    fn written_responses_read_back_in_order() {
        let mut wire = Vec::new();
        write_response_with(&mut wire, 200, "application/json", None, b"{}", false).unwrap();
        write_response_with(&mut wire, 503, "application/json", Some(2), b"{\"e\":1}", true)
            .unwrap();
        let mut c = Cursor::new(wire);
        let (a, close) = read_response(&mut c).unwrap();
        assert_eq!(a, Response::new(200, "application/json", "{}"));
        assert!(!close);
        let (b, close) = read_response(&mut c).unwrap();
        assert_eq!((b.status, b.retry_after, b.body.as_slice()), (503, Some(2), &b"{\"e\":1}"[..]));
        assert!(close);
        assert_eq!(read_response(&mut c).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn connection_close_and_retry_after_are_read() {
        let (r, close) = parse_response(
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nContent-Length: 0\r\n\
              Connection: Close\r\n\r\n",
        )
        .unwrap();
        assert_eq!((r.status, r.retry_after, close), (429, Some(3), true));
        assert_eq!(r.content_type, "application/octet-stream");
        // A non-numeric Retry-After (an HTTP date) is no hint, not an error.
        let (r, close) = parse_response(
            b"HTTP/1.1 503 x\r\nretry-after: Fri, 31 Dec 1999 23:59:59 GMT\r\n\
              connection: keep-alive\r\ncontent-length: 0\r\n\r\n",
        )
        .unwrap();
        assert_eq!((r.retry_after, close), (None, false));
    }

    #[test]
    fn truncated_responses_are_eof_errors() {
        for cut in [
            &b""[..],
            b"HTTP/1.1 20",
            b"HTTP/1.1 200 OK\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-ty",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc",
        ] {
            assert_eq!(error_kind(cut), io::ErrorKind::UnexpectedEof, "{cut:?}");
        }
    }

    #[test]
    fn malformed_heads_and_bad_or_oversized_lengths_are_rejected() {
        let oversized =
            format!("HTTP/1.1 200 OK\r\ncontent-length: {}\r\n\r\n", MAX_RESPONSE_BODY + 1);
        let mut huge = b"HTTP/1.1 200 OK\r\nx: ".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_RESPONSE_HEAD));
        huge.extend_from_slice(b"\r\ncontent-length: 0\r\n\r\n");
        for input in [
            &b"HTTP/1.1 200 OK\r\ncontent-length: nope\r\n\r\n"[..],
            b"HTTP/1.1 200 OK\r\ncontent-length: -1\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 3\r\n\r\nabc",
            b"HTTP/1.1 200 OK\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
            oversized.as_bytes(),
            b"HTTP/1.1 abc OK\r\ncontent-length: 0\r\n\r\n",
            b"SPDY/9 200 OK\r\ncontent-length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nno-colon-here\r\ncontent-length: 0\r\n\r\n",
            &huge,
        ] {
            assert_eq!(error_kind(input), io::ErrorKind::InvalidData, "{input:?}");
        }
    }

    // --- the server loop, over real loopback sockets ---------------------

    /// A server whose route echoes the request path; `tune` may shrink
    /// its connection cap and idle timeout before it runs.
    fn echo_server_with(
        tune: impl FnOnce(&mut Server),
    ) -> (SocketAddr, Shutdown, std::thread::JoinHandle<io::Result<()>>) {
        let mut server = Server::bind("127.0.0.1:0", "test", Limits::default()).unwrap();
        tune(&mut server);
        let (addr, shutdown) = (server.local_addr(), server.shutdown_handle());
        let handle = std::thread::spawn(move || {
            server.run(|req| match req {
                Ok(req) => Response::new(200, "text/plain", req.path.clone()),
                Err(e) => Response::error(&e),
            })
        });
        (addr, shutdown, handle)
    }

    fn echo_server() -> (SocketAddr, Shutdown, std::thread::JoinHandle<io::Result<()>>) {
        echo_server_with(|_| {})
    }

    fn connect(addr: SocketAddr) -> Conn {
        Conn::connect(addr, Duration::from_secs(5)).unwrap()
    }

    fn stop(shutdown: Shutdown, handle: std::thread::JoinHandle<io::Result<()>>) {
        shutdown.trigger();
        handle.join().unwrap().unwrap();
    }

    /// `GET /healthz` on a fresh connection must answer within one poll
    /// tick, whatever the server's other connections are doing.
    fn assert_healthz_answers_promptly(addr: SocketAddr) {
        let t0 = Instant::now();
        let resp = one_shot(addr, "GET", "/healthz", b"", POLL_TICK).expect("/healthz answered");
        assert_eq!((resp.status, resp.text().as_ref()), (200, "/healthz"));
        assert!(t0.elapsed() < POLL_TICK, "/healthz took {:?}", t0.elapsed());
    }

    #[test]
    fn connect_falls_through_to_an_address_that_answers() {
        let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
        let (live, shutdown, handle) = echo_server();
        let mut conn = Conn::connect(&[dead, live][..], Duration::from_secs(5)).unwrap();
        assert_eq!(conn.request("GET", "/up", b"").unwrap().0.text(), "/up");
        stop(shutdown, handle);
    }

    #[test]
    fn server_answers_pipelined_requests_in_order() {
        let (addr, shutdown, handle) = echo_server();
        let mut conn = connect(addr);
        for path in ["/a", "/b", "/c"] {
            conn.write_request("GET", path, b"").unwrap();
        }
        for path in ["/a", "/b", "/c"] {
            let (resp, close) = conn.read_response().unwrap();
            assert_eq!((resp.status, resp.text().as_ref(), close), (200, path, false));
        }
        stop(shutdown, handle);
    }

    #[test]
    fn server_answers_a_framing_error_then_closes() {
        let (addr, shutdown, handle) = echo_server();
        let mut conn = connect(addr);
        conn.write_raw(b"GARBAGE\r\n\r\nGET /never HTTP/1.1\r\n\r\n").unwrap();
        let (resp, close) = conn.read_response().unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.text().contains("\"kind\":\"bad_request\""), "{}", resp.text());
        assert!(close, "a framing error must announce the close");
        assert!(conn.read_response().is_err(), "nothing is answered after the close");
        stop(shutdown, handle);
    }

    #[test]
    fn silent_connections_do_not_starve_a_fresh_client() {
        let (addr, shutdown, handle) = echo_server();
        // Eight connections that never send a byte.
        let silent: Vec<TcpStream> = (0..8).map(|_| TcpStream::connect(addr).unwrap()).collect();
        assert_healthz_answers_promptly(addr);
        stop(shutdown, handle);
        drop(silent);
    }

    #[test]
    fn slow_drip_clients_do_not_delay_another_client() {
        let (addr, shutdown, handle) = echo_server();
        // Eight clients each part-way through a request, well inside the
        // read deadline.
        let mut drips: Vec<Conn> = (0..8).map(|_| connect(addr)).collect();
        for conn in &mut drips {
            conn.write_raw(b"GET /dr").unwrap();
        }
        std::thread::sleep(POLL_TICK);
        for conn in &mut drips {
            conn.write_raw(b"ip HTTP/1.1\r\n").unwrap();
        }
        assert_healthz_answers_promptly(addr);
        // Each drip finishes its request and is answered in full.
        for conn in &mut drips {
            conn.write_raw(b"\r\n").unwrap();
            let (resp, close) = conn.read_response().unwrap();
            assert_eq!((resp.status, resp.text().as_ref(), close), (200, "/drip", false));
        }
        stop(shutdown, handle);
    }

    #[test]
    fn connection_past_the_cap_gets_a_structured_503_and_a_close() {
        let (addr, shutdown, handle) = echo_server_with(|s| s.max_connections = 2);
        let mut held: Vec<Conn> = (0..2).map(|_| connect(addr)).collect();
        for conn in &mut held {
            assert_eq!(conn.request("GET", "/held", b"").unwrap().0.status, 200);
        }
        let (resp, close) = connect(addr).read_response().unwrap();
        assert_eq!(resp.status, 503);
        assert!(resp.text().contains("\"kind\":\"unavailable\""), "{}", resp.text());
        assert!(close, "the refusal must announce the close");
        // A closed connection frees its place once its thread ends.
        drop(held.pop());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match connect(addr).request("GET", "/again", b"") {
                Ok((resp, _)) if resp.status == 200 => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
                other => panic!("the freed place was never reused: {other:?}"),
            }
        }
        stop(shutdown, handle);
    }

    #[test]
    fn silent_keep_alive_closes_after_the_idle_timeout() {
        let (addr, shutdown, handle) =
            echo_server_with(|s| s.idle_timeout = Duration::from_millis(100));
        let mut idle = connect(addr);
        assert_eq!(idle.request("GET", "/warm", b"").unwrap().0.status, 200);
        let t0 = Instant::now();
        let err = idle.read_response().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(t0.elapsed() < Duration::from_secs(2), "closed after {:?}", t0.elapsed());
        stop(shutdown, handle);
    }

    #[test]
    fn shutdown_drains_idle_keep_alives_and_run_returns() {
        let (addr, shutdown, handle) = echo_server();
        let mut idle = connect(addr);
        assert_eq!(idle.request("GET", "/warm", b"").unwrap().0.status, 200);
        let t0 = Instant::now();
        stop(shutdown, handle);
        assert!(t0.elapsed() < Duration::from_secs(3), "drain took {:?}", t0.elapsed());
        assert!(idle.read_response().is_err(), "the idle keep-alive was closed");
    }
}
