//! The TCP transport: an acceptor thread feeding a bounded
//! [`WorkerPool`], one connection per job.
//!
//! The acceptor never does protocol work — it only hands sockets to the
//! pool, so a slow request can never stall `accept()`. The pool's queue
//! is bounded ([`pv_runtime::WorkerPool`]): when every worker is busy and
//! the queue is full, the acceptor blocks in `submit`, TCP backpressure
//! reaches the clients, and memory stays flat under overload. The
//! acceptor blocks in `accept()`; shutdown sets the stop flag and wakes
//! it by connecting to the server's own address, and every connection
//! accepted after the flag, backlog included, gets a structured `503`.

use crate::http::{read_request, write_response, RequestError, IO_TIMEOUT};
use pv_runtime::{Runtime, WorkerPool};
use std::io::{BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pause after a failed `accept()` (e.g. `EMFILE`) or a failed shutdown
/// wake-up connect, so a persistent error cannot spin a core.
const RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Shutdown's wake-up connects (attempts, and the timeout of each) before
/// it stops waiting for the acceptor.
const WAKE_ATTEMPTS: u32 = 100;
const WAKE_TIMEOUT: Duration = Duration::from_millis(250);

/// Read timeout and count of the reads that drain a refused client.
const REFUSE_LINGER: Duration = Duration::from_millis(100);
const REFUSE_READS: usize = 16;

/// What the transport serves: anything that can turn a parsed request
/// into a `(status, JSON body)` pair.
///
/// [`Server`] is generic over its handler so the same acceptor/pool
/// transport serves both a single-process [`PlacementService`] and the
/// shard [`Router`] — one implementation of timeouts, backpressure, and
/// error-path conventions instead of two.
///
/// Implementations must be pure functions of the request for `/v1/place`
/// (the workspace determinism contract); the [`RequestContext`] feeds
/// observability only and must never influence response bytes.
///
/// [`PlacementService`]: crate::service::PlacementService
/// [`Router`]: crate::router::Router
pub trait Handler: Send + Sync + 'static {
    /// Answers one request with an HTTP status and a body.
    fn handle(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
        ctx: &RequestContext,
    ) -> (u16, String);

    /// Runs on the worker thread after the response bytes are on the
    /// wire — the off-request-path slot where handlers flush their
    /// trace-log ring. The default does nothing.
    fn after_response(&self) {}

    /// Runs after the worker pool has drained during shutdown (e.g. flush
    /// pending snapshot writes). The default does nothing.
    fn on_shutdown(&self) {}
}

/// Observability context of one request, carried alongside the parsed
/// body: never allowed to influence response bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestContext {
    /// Connections accepted but not yet picked up by a worker at the
    /// moment this one was; reported as `queue_depth` in `/v1/stats`.
    pub queue_depth: usize,
    /// Trace id forwarded by the router in the internal `x-pv-trace`
    /// header, if any; entry-point handlers derive their own.
    pub trace: Option<u64>,
}

/// A running placement server; dropping or [`shutdown`](Self::shutdown)
/// stops accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `handler` on `runtime.threads()` workers over a queue of at most
    /// `queue_capacity` waiting connections.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn bind<H: Handler>(
        addr: impl ToSocketAddrs,
        handler: Arc<H>,
        runtime: Runtime,
        queue_capacity: usize,
    ) -> std::io::Result<Self> {
        let handler: Arc<dyn Handler> = handler;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            // pvlint: allow(D03): the acceptor is transport, not compute — all solve work still goes through the WorkerPool
            std::thread::Builder::new()
                .name("pv-accept".into())
                .spawn(move || accept_loop(&listener, &handler, runtime, queue_capacity, &stop))?
        };
        Ok(Self {
            local_addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains queued and in-flight requests, joins all
    /// threads — unless no wake-up connect gets through, in which case the
    /// acceptor exits on its next connection instead of hanging the caller.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        let Some(handle) = self.acceptor.take() else {
            return;
        };
        if wake_acceptor(self.local_addr, &handle) {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// Unblocks an acceptor sitting in `accept()` by connecting to its own
/// address (over loopback for an unspecified bind address). Returns
/// whether the acceptor is woken or already gone.
fn wake_acceptor(mut target: SocketAddr, acceptor: &JoinHandle<()>) -> bool {
    if target.ip().is_unspecified() {
        let v4 = target.is_ipv4();
        target.set_ip(if v4 {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        });
    }
    for _ in 0..WAKE_ATTEMPTS {
        if acceptor.is_finished() || TcpStream::connect_timeout(&target, WAKE_TIMEOUT).is_ok() {
            return true;
        }
        // pvlint: allow(R04): bounded retry of a failed shutdown wake-up connect
        std::thread::sleep(RETRY_BACKOFF);
    }
    acceptor.is_finished()
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.acceptor.is_some() && !std::thread::panicking() {
            self.stop_and_join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    handler: &Arc<dyn Handler>,
    runtime: Runtime,
    queue_capacity: usize,
    stop: &AtomicBool,
) {
    let pool = WorkerPool::new(runtime, queue_capacity);
    // Connections accepted but not yet picked up by a worker — the number
    // `/v1/stats` reports as `queue_depth`.
    let backlog = Arc::new(AtomicUsize::new(0));
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::Acquire) {
                    // The shutdown wake-up, or a client that raced it.
                    refuse_connection(&stream);
                    break;
                }
                backlog.fetch_add(1, Ordering::AcqRel);
                let handler = Arc::clone(handler);
                let worker_backlog = Arc::clone(&backlog);
                let queued = pool.submit(move || {
                    let depth = worker_backlog.fetch_sub(1, Ordering::AcqRel) - 1;
                    handle_connection(&stream, handler.as_ref(), depth);
                });
                debug_assert!(queued, "the pool closes only after the accept loop");
            }
            Err(_) if stop.load(Ordering::Acquire) => break,
            // Transient accept errors (an aborted handshake, `EMFILE`)
            // must not kill the server.
            Err(_) => {
                // pvlint: allow(R04): backoff after a failed accept, never on the idle path
                std::thread::sleep(RETRY_BACKOFF);
            }
        }
    }
    // Connections that completed their handshake behind the wake-up get
    // the same 503 instead of a reset when the listener closes.
    if listener.set_nonblocking(true).is_ok() {
        while let Ok((stream, _)) = listener.accept() {
            refuse_connection(&stream);
        }
    }
    pool.shutdown(); // drain accepted connections before returning
    handler.on_shutdown(); // then e.g. flush pending snapshot writes
}

/// Answers a connection accepted during shutdown with a structured
/// `503` — the error-path convention is "never drop a socket you
/// accepted".
///
/// Closing a socket with unread request bytes resets the connection and
/// can destroy the `503` unread, so the write side is half-closed and the
/// client's bytes are drained (a few short, timed reads at most).
fn refuse_connection(stream: &TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_read_timeout(Some(REFUSE_LINGER));
    let mut writer = stream;
    let _ = write_response(
        &mut writer,
        503,
        "application/json",
        br#"{"error": "server is shutting down"}"#,
    );
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 4096];
    let mut reader = stream;
    for _ in 0..REFUSE_READS {
        if !matches!(reader.read(&mut sink), Ok(n) if n > 0) {
            break;
        }
    }
}

fn handle_connection(stream: &TcpStream, handler: &dyn Handler, queue_depth: usize) {
    // Timeouts so a dead peer frees the worker.
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_nodelay(true);

    let mut reader = BufReader::new(stream);
    let (status, body, content_type) = match read_request(&mut reader) {
        Ok(request) => {
            let ctx = RequestContext {
                queue_depth,
                trace: request.trace,
            };
            let (status, body) =
                handler.handle(&request.method, &request.target, &request.body, &ctx);
            // `/v1/metrics` is the one non-JSON endpoint: Prometheus
            // exposition text. Everything else keeps the fixed JSON
            // content type.
            let content_type = if request.target == "/v1/metrics" && status == 200 {
                pv_obs::EXPOSITION_CONTENT_TYPE
            } else {
                "application/json"
            };
            (status, body, content_type)
        }
        Err(RequestError::TooLarge) => (
            413,
            r#"{"error": "request too large"}"#.to_string(),
            "application/json",
        ),
        Err(RequestError::Malformed(e)) => (
            400,
            format!(r#"{{"error": "{}"}}"#, pv_json::escape(&e)),
            "application/json",
        ),
        Err(RequestError::Io(_)) => return, // peer vanished; nothing to answer
    };
    let mut writer = stream;
    let _ = write_response(&mut writer, status, content_type, body.as_bytes());
    // Response bytes are on the wire: anything from here on (trace-log
    // flushing) is off the request path by construction.
    handler.after_response();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::send_request;
    use crate::service::{PlacementService, ServiceConfig};

    fn start(threads: usize) -> Server {
        start_on("127.0.0.1:0", threads)
    }

    fn start_on(addr: &str, threads: usize) -> Server {
        let service = Arc::new(PlacementService::new(ServiceConfig::tiny()));
        Server::bind(addr, service, Runtime::with_threads(threads), 8).expect("bind ephemeral port")
    }

    /// Runs `server.shutdown()` under a watchdog: a hang fails the test
    /// after a generous timeout instead of stalling the suite. Returns
    /// how long the shutdown took.
    fn shutdown_within_watchdog(server: Server) -> Duration {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let t0 = std::time::Instant::now();
            server.shutdown();
            let _ = done.send(t0.elapsed());
        });
        finished
            .recv_timeout(Duration::from_secs(60))
            .expect("shutdown hung: the acceptor was never woken")
    }

    #[test]
    fn idle_servers_shut_down_promptly_on_loopback_and_unspecified_addresses() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = start_on(addr, 2);
            // Idle: the acceptor is blocked in accept() with nothing queued.
            std::thread::sleep(Duration::from_millis(20));
            let took = shutdown_within_watchdog(server);
            assert!(
                took < Duration::from_secs(5),
                "{addr}: shutdown took {took:?}"
            );
        }
    }

    #[test]
    fn clients_connecting_during_shutdown_get_an_answer_not_a_reset() {
        use std::io::{Read, Write};
        // One worker and a one-slot queue: the first client holds the
        // worker (it has not sent its request yet), the second fills the
        // queue, and the acceptor blocks handing over the third.
        let service = Arc::new(PlacementService::new(ServiceConfig::tiny()));
        let server = Server::bind("127.0.0.1:0", service, Runtime::with_threads(1), 1).unwrap();
        let addr = server.local_addr();
        let connect = || TcpStream::connect(addr).expect("connect");
        let mut clients: Vec<TcpStream> = (0..3).map(|_| connect()).collect();
        std::thread::sleep(Duration::from_millis(50));
        // Shutdown's first step; these two connect while it runs, so the
        // acceptor can only reach them after the flag is set.
        server.stop.store(true, Ordering::Release);
        clients.extend((0..2).map(|_| connect()));
        // Every request is sent before any answer is read, so refused
        // clients have unread bytes on the server side when it closes.
        for client in &mut clients {
            client
                .write_all(b"GET /v1/healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        }
        for (i, mut client) in clients.into_iter().enumerate() {
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut response = String::new();
            client
                .read_to_string(&mut response)
                .unwrap_or_else(|e| panic!("client {i} was not answered: {e}"));
            let refused =
                response.starts_with("HTTP/1.1 503") && response.contains("shutting down");
            assert!(
                refused || response.starts_with("HTTP/1.1 200"),
                "client {i}: {response:?}"
            );
            assert!(
                refused || i < 3,
                "client {i} connected after the stop flag: {response:?}"
            );
        }
        shutdown_within_watchdog(server);
    }

    #[test]
    fn healthz_round_trips_over_tcp() {
        let server = start(2);
        let (status, body) = send_request(server.local_addr(), "GET", "/v1/healthz", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, r#"{"status": "ok"}"#);
        server.shutdown();
    }

    #[test]
    fn malformed_wire_requests_get_a_400_not_a_hang() {
        use std::io::{Read, Write};
        let server = start(1);
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");
        server.shutdown();
    }

    #[test]
    fn place_and_stats_work_end_to_end() {
        let server = start(2);
        let spec = pv_gis::ScenarioSpec::generate(2018, 1).to_spec_string();
        let (status, body) =
            send_request(server.local_addr(), "POST", "/v1/place", spec.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        let (status, stats) = send_request(server.local_addr(), "GET", "/v1/stats", b"").unwrap();
        assert_eq!(status, 200);
        let parsed = pv_json::parse(&stats).unwrap();
        assert_eq!(parsed.get("place_ok").unwrap().as_number(), Some(1.0));
        server.shutdown();
    }

    #[test]
    fn refused_connections_get_a_structured_503() {
        use std::io::Read;
        // Drive the queue-closed path directly: a socket the pool will
        // never pick up still gets an answer, not a reset.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        refuse_connection(&accepted);
        drop(accepted);
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("shutting down"), "{response}");
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let server = start(1);
        let addr = server.local_addr();
        drop(server);
        // The listener is fully closed: the exact port can be bound again.
        TcpListener::bind(addr).expect("port released after drop");
    }
}
