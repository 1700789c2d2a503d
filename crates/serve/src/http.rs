//! The HTTP transport: a minimal, dependency-free HTTP/1.1 listener over
//! `std::net::TcpListener` with a hand-rolled request parser, serving
//! the same JSONL protocol as the stdio transport.
//!
//! Routes:
//!
//! - `POST /` or `POST /synth` — body is newline-delimited JSON requests
//!   (one or many); the response body is one response line per request
//!   line, `Content-Type: application/x-ndjson`.
//! - `GET /stats` — cache counters (the `stats` op).
//! - `GET /health` — liveness probe (the `ping` op).
//!
//! One thread per connection, `Connection: close` after each response —
//! deliberately simple; the synthesis work dwarfs connection setup.
//!
//! # Robustness
//!
//! - **Connection shedding**: at most `ServeConfig::max_conns` connections
//!   are served concurrently; excess connections get an immediate
//!   `503 Service Unavailable` instead of queuing without bound.
//! - **Socket timeouts**: every accepted socket gets the service's
//!   read/write timeout, so a stalled peer cannot pin a connection slot
//!   (and its thread) forever.
//! - **Graceful shutdown**: [`HttpServer::run`] watches a shutdown flag
//!   checked after every accept; once raised (wake the blocking accept
//!   with a self-connection — see [`HttpServer::local_addr`]) the
//!   listener stops accepting and drains in-flight requests before
//!   returning, so the caller can compact the cache journal knowing no
//!   request is mid-insert.

use crate::service::{kind, Service};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Upper bound on the request line and each header line.
const MAX_LINE_BYTES: usize = 64 << 10;

/// Incremental body-read chunk size: memory is committed as data
/// actually arrives, never from the client-claimed `Content-Length`.
const BODY_CHUNK_BYTES: usize = 64 << 10;

/// How long [`HttpServer::run`] waits for in-flight connections to
/// finish after the shutdown flag is raised.
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);

/// Binds `addr` (use `127.0.0.1:0` for an ephemeral port), returns the
/// bound address, and serves on a background thread — the test and
/// embedding entry point.
///
/// # Errors
///
/// Returns the bind error.
pub fn spawn_http(service: Arc<Service>, addr: &str) -> io::Result<SocketAddr> {
    let server = HttpServer::bind(service, addr)?;
    let bound = server.local_addr();
    thread::spawn(move || {
        let _ = server.run(&AtomicBool::new(false));
    });
    Ok(bound)
}

/// A bound HTTP listener with explicit lifecycle control (the
/// `rms serve --http` entry point, which needs SIGTERM-driven
/// shutdown).
pub struct HttpServer {
    service: Arc<Service>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl HttpServer {
    /// Binds `addr` without serving yet.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        Ok(HttpServer {
            service,
            listener,
            local_addr,
        })
    }

    /// The actually-bound address (resolves `:0` to the ephemeral
    /// port). A shutdown driver connects here once after raising the
    /// flag to wake the blocking accept.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Accepts and serves connections until `shutdown` is observed
    /// true, then drains in-flight requests (bounded by an internal
    /// deadline) and returns. The flag is checked after each accept;
    /// because `accept` blocks, raising the flag must be followed by a
    /// connection to [`HttpServer::local_addr`] to wake the loop.
    ///
    /// # Errors
    ///
    /// Per-connection errors are contained; only listener-level
    /// failures propagate.
    pub fn run(&self, shutdown: &AtomicBool) -> io::Result<()> {
        let active = Arc::new(AtomicUsize::new(0));
        let max_conns = self.service.config().max_conns;
        let io_timeout = self.service.config().io_timeout;
        for stream in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let _ = stream.set_read_timeout(io_timeout);
            let _ = stream.set_write_timeout(io_timeout);
            // Claim a connection slot or shed the connection: the slot
            // is taken *before* the worker spawns so the cap bounds
            // live threads, not just requests.
            if active.fetch_add(1, Ordering::SeqCst) >= max_conns {
                active.fetch_sub(1, Ordering::SeqCst);
                // Shed on a detached thread so a slow peer cannot stall
                // the accept loop; the thread is short-lived (bounded
                // drain + one write).
                thread::spawn(move || shed_connection(stream, max_conns));
                continue;
            }
            let service = Arc::clone(&self.service);
            let guard = ConnGuard(Arc::clone(&active));
            thread::spawn(move || {
                let _guard = guard;
                handle_connection(&service, stream);
            });
        }
        // Drain: wait for in-flight workers so the caller can compact
        // the journal with no insert racing it.
        let deadline = Instant::now() + DRAIN_DEADLINE;
        while active.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        Ok(())
    }
}

/// Answers a connection past the cap with `503`. The client's pending
/// request bytes are drained (bounded) first: closing a socket with
/// unread received data sends RST, which would destroy the 503 before
/// the peer can read it.
fn shed_connection(mut stream: TcpStream, max_conns: usize) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < 64 << 10 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break, // EOF or timed out: peer is done sending
            Ok(n) => drained += n,
        }
    }
    let response = Response::error(
        503,
        "Service Unavailable",
        kind::OVERLOADED,
        &format!("connection limit of {max_conns} reached, try again"),
    );
    let _ = write_response(&mut stream, &response);
}

/// Releases a connection slot when the worker finishes (or panics).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

struct Request {
    method: String,
    path: String,
    body: String,
}

struct Response {
    status: u16,
    reason: &'static str,
    body: String,
}

impl Response {
    fn ok(body: String) -> Response {
        Response {
            status: 200,
            reason: "OK",
            body,
        }
    }

    fn error(status: u16, reason: &'static str, kind: &str, message: &str) -> Response {
        Response {
            status,
            reason,
            body: crate::service::error_envelope("", kind, message),
        }
    }

    fn bad_request(status: u16, reason: &'static str, message: &str) -> Response {
        Response::error(status, reason, kind::BAD_REQUEST, message)
    }
}

fn handle_connection(service: &Service, mut stream: TcpStream) {
    let response = match read_request(&mut stream, service.config().max_body_bytes) {
        Ok(request) => route(service, &request),
        Err(response) => response,
    };
    let _ = write_response(&mut stream, &response);
}

/// Parses the request line, headers, and `Content-Length`-framed body.
/// Protocol violations come back as ready-made error responses.
///
/// Bodies over `max_body_bytes` are rejected with `413` straight from
/// the header, and the body buffer grows chunk by chunk as bytes
/// actually arrive — a hostile `Content-Length` never translates into a
/// large allocation.
fn read_request(stream: &mut TcpStream, max_body_bytes: usize) -> Result<Request, Response> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| {
        Response::error(500, "Internal Server Error", kind::INTERNAL, &e.to_string())
    })?);
    let request_line = read_header_line(&mut reader)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(Response::bad_request(
            400,
            "Bad Request",
            "malformed request line",
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(Response::bad_request(
            400,
            "Bad Request",
            "expected HTTP/1.x",
        ));
    }
    let mut content_length = 0usize;
    loop {
        let line = read_header_line(&mut reader)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(Response::bad_request(
                400,
                "Bad Request",
                "malformed header line",
            ));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| Response::bad_request(400, "Bad Request", "bad Content-Length"))?;
        }
    }
    if content_length > max_body_bytes {
        return Err(Response::bad_request(
            413,
            "Payload Too Large",
            &format!(
                "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
            ),
        ));
    }
    let mut body = Vec::new();
    let mut remaining = content_length;
    while remaining > 0 {
        let chunk = remaining.min(BODY_CHUNK_BYTES);
        let start = body.len();
        body.resize(start + chunk, 0);
        reader
            .read_exact(&mut body[start..])
            .map_err(|_| Response::bad_request(400, "Bad Request", "truncated request body"))?;
        remaining -= chunk;
    }
    let body = String::from_utf8(body)
        .map_err(|_| Response::bad_request(400, "Bad Request", "request body is not UTF-8"))?;
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body,
    })
}

/// One CRLF-terminated header line, size-capped.
fn read_header_line<R: BufRead>(reader: &mut R) -> Result<String, Response> {
    let mut line = String::new();
    let mut limited = reader.take(MAX_LINE_BYTES as u64);
    limited
        .read_line(&mut line)
        .map_err(|e| Response::bad_request(400, "Bad Request", &e.to_string()))?;
    if !line.ends_with('\n') && line.len() >= MAX_LINE_BYTES {
        return Err(Response::bad_request(
            431,
            "Request Header Fields Too Large",
            "header line too long",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

fn route(service: &Service, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Response::ok(service.handle_line("{\"op\":\"ping\"}")),
        ("GET", "/stats") => Response::ok(service.handle_line("{\"op\":\"stats\"}")),
        ("POST", "/") | ("POST", "/synth") => {
            let mut lines = Vec::new();
            for line in request.body.lines() {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    lines.push(service.handle_line(trimmed));
                }
            }
            if lines.is_empty() {
                return Response::bad_request(400, "Bad Request", "empty request body");
            }
            Response::ok(lines.join("\n"))
        }
        ("GET" | "POST", _) => Response::bad_request(404, "Not Found", "no such route"),
        _ => Response::bad_request(405, "Method Not Allowed", "use GET or POST"),
    }
}

/// Sends `response` with one `write_all`: the head and the body, which
/// always ends in a newline, are built into one message first, so a
/// response costs one write on the unbuffered socket.
fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    let body = response.body.as_str();
    let newline = if body.ends_with('\n') { "" } else { "\n" };
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}{newline}",
        response.status,
        response.reason,
        body.len() + newline.len(),
    );
    stream.write_all(message.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;

    fn start() -> SocketAddr {
        start_with(ServeConfig::default())
    }

    fn start_with(config: ServeConfig) -> SocketAddr {
        let service = Arc::new(Service::new(config));
        spawn_http(service, "127.0.0.1:0").expect("bind ephemeral port")
    }

    fn exchange(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("receive");
        response
    }

    fn post(addr: SocketAddr, body: &str) -> String {
        exchange(
            addr,
            &format!(
                "POST /synth HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            ),
        )
    }

    #[test]
    fn http_round_trip_and_cache_hit() {
        let addr = start();
        let body = "{\"id\":\"h1\",\"bench\":\"rd53_f2\",\"effort\":2}\n";
        let cold = post(addr, body);
        assert!(cold.starts_with("HTTP/1.1 200 OK\r\n"), "{cold}");
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        let warm = post(addr, body);
        assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
        // Two request lines in one POST → two response lines.
        let double = post(addr, &format!("{body}{body}"));
        assert_eq!(double.matches("\"cache\":\"hit\"").count(), 2, "{double}");
    }

    #[test]
    fn http_health_stats_and_errors() {
        let addr = start();
        let health = exchange(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(health.contains("\"op\":\"ping\""), "{health}");
        let stats = exchange(addr, "GET /stats HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(stats.contains("\"op\":\"stats\""), "{stats}");
        let missing = exchange(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
        // The whole response, byte for byte: head, then the envelope and
        // its terminating newline.
        let body = crate::service::error_envelope("", kind::BAD_REQUEST, "no such route");
        assert_eq!(
            missing,
            format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/x-ndjson\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}\n",
                body.len() + 1
            )
        );
        let bad = exchange(addr, "garbage\r\n\r\n");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        let empty = post(addr, "");
        assert!(empty.starts_with("HTTP/1.1 400"), "{empty}");
        let wrong_method = exchange(addr, "DELETE / HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(wrong_method.starts_with("HTTP/1.1 405"), "{wrong_method}");
    }

    #[test]
    fn oversized_content_length_is_rejected_with_413() {
        // Regression: a client claiming a multi-GB body must be turned
        // away from the header alone — no body is ever sent here, so a
        // response at all proves the server did not try to read (or
        // allocate) the claimed length.
        let addr = start();
        let request = "POST /synth HTTP/1.1\r\nHost: t\r\nContent-Length: 109951162777600\r\n\r\n";
        let response = exchange(addr, request);
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        assert!(response.contains("exceeds"), "{response}");
    }

    #[test]
    fn configured_body_cap_is_enforced() {
        let addr = start_with(ServeConfig {
            max_body_bytes: 128,
            ..ServeConfig::default()
        });
        // An honest request over the configured cap: 413.
        let big = "x".repeat(256);
        let over = post(addr, &big);
        assert!(over.starts_with("HTTP/1.1 413"), "{over}");
        // Under the cap, the request reaches the router (bad JSON, but
        // transported fine → 200 with an error envelope per line).
        let ok = post(addr, "{\"op\":\"ping\"}");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
    }

    #[test]
    fn connection_cap_sheds_with_503_and_recovers() {
        let addr = start_with(ServeConfig {
            max_conns: 1,
            ..ServeConfig::default()
        });
        // Occupy the single slot with a connection that never finishes
        // its request (the socket timeout would reap it eventually, but
        // not within this test).
        let mut holder = TcpStream::connect(addr).expect("connect holder");
        holder
            .write_all(b"POST /synth HTTP/1.1\r\n")
            .expect("partial request");
        // Once the holder's accept lands, every further connection is
        // shed with 503. Poll because the accept races this thread.
        let mut shed = None;
        for _ in 0..200 {
            let r = exchange(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
            if r.starts_with("HTTP/1.1 503") {
                shed = Some(r);
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let shed = shed.expect("a connection past the cap must be shed with 503");
        assert!(shed.contains("\"kind\":\"overloaded\""), "{shed}");
        // Releasing the slot restores service.
        drop(holder);
        let mut recovered = false;
        for _ in 0..200 {
            let r = exchange(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
            if r.starts_with("HTTP/1.1 200") {
                recovered = true;
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(recovered, "server must recover once the slot frees up");
    }

    #[test]
    fn graceful_shutdown_drains_and_returns() {
        let service = Arc::new(Service::new(ServeConfig::default()));
        let server = HttpServer::bind(service, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = thread::spawn(move || server.run(&flag));
        // Serve one request, then shut down.
        let r = exchange(addr, "GET /health HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
        shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr); // wake the blocking accept
        handle.join().expect("run thread").expect("clean shutdown");
    }
}
