//! A deliberately tiny HTTP/1.1 listener for Prometheus scrapes.
//!
//! Scrapers speak a narrow, well-behaved subset of HTTP: one GET, a
//! handful of headers, read the body, close. Serving that from a
//! hand-rolled loop over `std::net::TcpListener` keeps the daemon
//! dependency-free and the attack surface small — this is a metrics
//! port, not a web server. Every response closes the connection
//! (`Connection: close`), so no keep-alive state machine exists to get
//! wrong.
//!
//! The handler thread snapshots the shared
//! [`Registry`](gurita_metrics::Registry) on each request and encodes
//! it with [`gurita_metrics::encode::prometheus_text`]; it never
//! touches the engine, so a slow or hostile scraper cannot stall
//! virtual time.

use gurita_metrics::encode::prometheus_text;
use gurita_metrics::Registry as MetricsRegistry;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the accept loop sleeps when no connection is pending.
const ACCEPT_WAIT: Duration = Duration::from_millis(20);

/// Per-connection socket timeouts, so a stalled scraper cannot pin the
/// handler thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request or header line accepted, newline included.
pub const MAX_HEAD_LINE_BYTES: usize = 8 * 1024;

/// Longest request head (request line plus headers) accepted. A longer
/// line or head gets `431` without being buffered.
pub const MAX_HEAD_BYTES: usize = 32 * 1024;

/// Input discarded after a `431` so the client reads the reply instead
/// of a reset; past this the connection is simply closed.
const MAX_DISCARD_BYTES: u64 = 1024 * 1024;

/// Binds `addr` and serves Prometheus text-format scrapes of
/// `metrics` until `stop` is raised. Returns the listener thread's
/// handle and the bound address (useful with port 0); join the handle
/// after raising `stop`.
///
/// Routes: `GET /metrics` (and `GET /`) → 200 with exposition 0.0.4;
/// anything else → 404; a request head over [`MAX_HEAD_LINE_BYTES`]
/// per line or [`MAX_HEAD_BYTES`] in total → 431.
///
/// # Errors
///
/// Address bind failures (port in use, bad address).
pub fn serve_metrics_http(
    addr: &str,
    metrics: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) -> io::Result<(JoinHandle<()>, std::net::SocketAddr)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let handle = std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    // Handled inline: scrapes are cheap and sequential
                    // handling bounds concurrent snapshot work.
                    let _ = handle_scrape(stream, &metrics);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_WAIT);
                }
                Err(_) => break,
            }
        }
    });
    Ok((handle, local))
}

/// Reads one request head, writes one response, closes.
fn handle_scrape(stream: TcpStream, metrics: &MetricsRegistry) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let Some(request_line) = read_head(&mut reader)? else {
        let mut out = stream;
        respond(
            &mut out,
            "431 Request Header Fields Too Large",
            "text/plain",
            "request head too large\n",
        )?;
        // Let the reply land before closing: closing with unread input
        // would reset the connection under the client.
        out.shutdown(std::net::Shutdown::Write)?;
        let _ = io::copy(&mut reader.take(MAX_DISCARD_BYTES), &mut io::sink());
        return Ok(());
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let mut out = reader.into_inner();
    if method != "GET" {
        return respond(
            &mut out,
            "405 Method Not Allowed",
            "text/plain",
            "method not allowed\n",
        );
    }
    // Accept query strings (`/metrics?foo=bar`) the way real scrapers
    // send them.
    let path = path.split('?').next().unwrap_or(path);
    if path == "/metrics" || path == "/" {
        let body = prometheus_text(&metrics.snapshot());
        respond(
            &mut out,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &body,
        )
    } else {
        respond(&mut out, "404 Not Found", "text/plain", "not found\n")
    }
}

/// Reads the request head through its blank line and returns the
/// request line (header content is irrelevant), or `None` once a line
/// exceeds [`MAX_HEAD_LINE_BYTES`] or the head [`MAX_HEAD_BYTES`]. Each
/// read is capped with [`Read::take`], so an oversized head is never
/// buffered.
fn read_head<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut request_line: Option<String> = None;
    let mut line = Vec::new();
    let mut budget = MAX_HEAD_BYTES;
    loop {
        line.clear();
        let cap = MAX_HEAD_LINE_BYTES.min(budget);
        let n = Read::take(&mut *reader, cap as u64).read_until(b'\n', &mut line)?;
        if n == cap && !line.ends_with(b"\n") {
            return Ok(None);
        }
        budget -= n;
        let blank = line == b"\r\n" || line == b"\n";
        if n == 0 || (blank && request_line.is_some()) {
            return Ok(Some(request_line.unwrap_or_default()));
        }
        request_line.get_or_insert_with(|| String::from_utf8_lossy(&line).into_owned());
    }
}

fn respond(out: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    write!(
        out,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: &str, path: &str) -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n").expect("write");
        let mut buf = String::new();
        s.read_to_string(&mut buf).expect("read");
        buf
    }

    #[test]
    fn scrape_roundtrip() {
        let metrics = Arc::new(MetricsRegistry::new());
        metrics
            .counter("gurita_events_total", "Events.", &[])
            .add(5);
        let stop = Arc::new(AtomicBool::new(false));
        let (handle, local) =
            serve_metrics_http("127.0.0.1:0", Arc::clone(&metrics), Arc::clone(&stop))
                .expect("serve");
        let addr = local.to_string();

        let ok = get(&addr, "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
        assert!(ok.contains("text/plain; version=0.0.4"));
        assert!(ok.contains("gurita_events_total 5\n"));
        let missing = get(&addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        stop.store(true, Ordering::SeqCst);
        handle.join().expect("join");
    }
}
