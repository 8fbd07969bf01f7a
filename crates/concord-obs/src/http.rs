//! A zero-dependency, single-threaded HTTP/1.1 admin listener on the
//! `concord-net` poller.
//!
//! The admin plane serves a handful of small introspection responses
//! (`/metrics`, `/statz`, `/trace/dump`), so the design is deliberately
//! minimal: one thread, one epoll instance, nonblocking sockets,
//! `Connection: close` after every response. Requests are limited to a
//! few KiB of headers and body; anything malformed, oversized, or
//! half-sent simply costs that one connection. The data plane never
//! sees this thread — handlers read counters the runtime publishes
//! anyway.
//!
//! The sockets are [`concord_net::endpoint`]'s, as on the data plane: a
//! connection reads its request, encodes the response into an
//! [`Outbox`] of one frame and flushes it, waiting for writability only
//! if the socket fills; the listener parks when `accept` fails (e.g. on
//! descriptor exhaustion), so the admin thread never spins on it.

use concord_net::endpoint::{flush, Flush, Listener, Outbox, Registration};
use concord_net::poll::{Events, Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Maximum bytes of request head (request line + headers) we accept.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body we accept (admin POSTs carry no payload today).
const MAX_BODY: usize = 64 * 1024;
/// Poll-wait granularity; bounds shutdown latency.
const WAIT_MS: i32 = 200;

/// A parsed admin request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// Request method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path including any query string (`/metrics`).
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A response a handler returns.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// A 200 response with the given content type.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: u16, msg: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: msg.as_bytes().to_vec(),
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )
        .expect("writing to a Vec");
        out.extend_from_slice(&self.body);
    }
}

/// The request handler the listener dispatches to.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// One admin connection: reading its request while the outbox is
/// empty, writing the response once it holds one.
struct Conn {
    stream: TcpStream,
    request: Vec<u8>,
    out: Outbox,
    reg: Registration,
}

/// The admin HTTP listener: owns its poller thread; dropping (or calling
/// [`HttpServer::shutdown`]) stops it.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    thread: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and starts the listener thread.
    pub fn bind(addr: impl ToSocketAddrs, handler: Handler) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let poller = Poller::new()?;
        let listener = Listener::register(listener, &poller, TOKEN_LISTENER)?;
        poller.add(waker.fd(), TOKEN_WAKER, Interest::READ)?;
        let thread = {
            let stop = stop.clone();
            let waker = waker.clone();
            std::thread::Builder::new()
                .name("concord-admin".to_string())
                .spawn(move || run(listener, poller, waker, stop, handler))?
        };
        Ok(HttpServer {
            addr,
            stop,
            waker,
            thread: Some(thread),
        })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

fn run(
    mut listener: Listener,
    poller: Poller,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    handler: Handler,
) {
    let mut events = Events::with_capacity(64);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    while !stop.load(Ordering::Acquire) {
        if poller
            .wait(&mut events, listener.timeout_ms(WAIT_MS))
            .is_err()
        {
            break;
        }
        // Connections may have queued while the listener was parked.
        let mut accept = listener.check_park(&poller);
        for ev in events.iter() {
            match ev.token {
                TOKEN_WAKER => waker.drain(),
                TOKEN_LISTENER => accept = true,
                token => {
                    let done = match conns.get_mut(&token) {
                        Some(conn) => drive_conn(conn, &poller, &handler, ev.hangup),
                        None => continue,
                    };
                    if done {
                        // Closing the socket drops its registration.
                        conns.remove(&token);
                    }
                }
            }
        }
        if !accept {
            continue;
        }
        while let Some(stream) = listener.accept(&poller) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let mut reg = Registration::new(stream.as_raw_fd(), next_token);
            if reg.sync(&poller, true, false) {
                let conn = Conn {
                    stream,
                    request: Vec::new(),
                    out: Outbox::new(1),
                    reg,
                };
                conns.insert(next_token, conn);
                next_token += 1;
            }
        }
    }
}

/// Advances one connection; returns true when it should be closed.
fn drive_conn(conn: &mut Conn, poller: &Poller, handler: &Handler, hangup: bool) -> bool {
    if conn.out.is_empty() {
        let mut buf = [0u8; 4096];
        // EOF is not an instant drop: a client may half-close after
        // sending a complete request and still await the response.
        let mut eof = hangup;
        let mut too_large = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.request.extend_from_slice(&buf[..n]);
                    if conn.request.len() > MAX_HEAD + MAX_BODY {
                        too_large = true;
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        let resp = if too_large {
            HttpResponse::text(413, "request too large\n")
        } else {
            match try_parse(&conn.request) {
                Parse::Incomplete => return eof, // half request + peer gone: drop
                Parse::Bad(msg) => HttpResponse::text(400, msg),
                Parse::Done(req) => handler(&req),
            }
        };
        conn.out.push(|b| resp.encode(b));
    }
    match flush(&mut conn.stream, &mut conn.out) {
        // Partial write: wait for writability, reading nothing more.
        Flush::Blocked => !conn.reg.sync(poller, false, true),
        Flush::Done | Flush::Failed => true,
    }
}

enum Parse {
    Incomplete,
    Bad(&'static str),
    Done(HttpRequest),
}

/// Parses a complete request out of the connection buffer, if present.
fn try_parse(buf: &[u8]) -> Parse {
    let head_end = match find_head_end(buf) {
        Some(end) => end,
        None if buf.len() > MAX_HEAD => return Parse::Bad("headers too large\n"),
        None => return Parse::Incomplete,
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Parse::Bad("non-ASCII request head\n"),
    };
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => (m, p),
        _ => return Parse::Bad("malformed request line\n"),
    };
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) => n,
                    Err(_) => return Parse::Bad("bad Content-Length\n"),
                };
            }
        }
    }
    if content_length > MAX_BODY {
        return Parse::Bad("body too large\n");
    }
    let body_start = head_end + 4;
    if buf.len() < body_start + content_length {
        return Parse::Incomplete;
    }
    Parse::Done(HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        body: buf[body_start..body_start + content_length].to_vec(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn handler() -> Handler {
        Arc::new(
            |req: &HttpRequest| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/ping") => HttpResponse::ok("text/plain", "pong\n"),
                ("POST", "/echo") => HttpResponse::ok("application/octet-stream", req.body.clone()),
                _ => HttpResponse::text(404, "not found\n"),
            },
        )
    }

    fn roundtrip(addr: SocketAddr, request: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(request.as_bytes()).expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        out
    }

    #[test]
    fn serves_get_and_post_and_404() {
        let srv = HttpServer::bind("127.0.0.1:0", handler()).expect("bind");
        let addr = srv.local_addr();
        let resp = roundtrip(addr, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("pong\n"), "{resp}");
        assert!(resp.contains("Connection: close"));

        let resp = roundtrip(
            addr,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.ends_with("hello"), "{resp}");

        let resp = roundtrip(addr, "GET /missing HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
        srv.shutdown();
    }

    #[test]
    fn rejects_malformed_request_line() {
        let srv = HttpServer::bind("127.0.0.1:0", handler()).expect("bind");
        let resp = roundtrip(srv.local_addr(), "NONSENSE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    #[test]
    fn request_split_across_writes_is_reassembled() {
        let srv = HttpServer::bind("127.0.0.1:0", handler()).expect("bind");
        let mut s = TcpStream::connect(srv.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /pi").expect("send");
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"ng HTTP/1.1\r\n\r\n").expect("send");
        let mut out = String::new();
        s.read_to_string(&mut out).expect("read");
        assert!(out.ends_with("pong\n"), "{out}");
    }

    #[test]
    fn concurrent_connections_are_served() {
        let srv = HttpServer::bind("127.0.0.1:0", handler()).expect("bind");
        let addr = srv.local_addr();
        let threads: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(move || roundtrip(addr, "GET /ping HTTP/1.1\r\n\r\n")))
            .collect();
        for t in threads {
            assert!(t.join().expect("join").ends_with("pong\n"));
        }
    }
}
