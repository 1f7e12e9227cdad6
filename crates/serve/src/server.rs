//! The TCP server: acceptor, bounded admission queue, and the
//! `wnsk-exec` worker pool that drains it.
//!
//! Request lifecycle:
//!
//! 1. a connection thread reads one NDJSON line, parses and *resolves*
//!    it (vocabulary lookups, id validation) — malformed requests are
//!    answered immediately and never consume a queue slot;
//! 2. admission: the request enters the bounded queue, or is shed with
//!    a `queue full` response when the queue is at `queue_depth`
//!    (`serve.shed`); the queue length at admission feeds the
//!    `serve.queue_depth` histogram;
//! 3. a pool worker dequeues it; if its deadline already expired while
//!    queued it is shed (`deadline exceeded`), otherwise the remaining
//!    deadline becomes the query's [`wnsk_core::QueryBudget`] so a
//!    mid-query expiry degrades the answer instead of stalling the
//!    connection;
//! 4. the response line travels back over the per-job channel and the
//!    end-to-end latency lands in `serve.request_ns`.

use crate::admin::{self, AdminHandle};
use crate::engine::{ResolvedRequest, ServeEngine};
use crate::observe::ObservabilityConfig;
use crate::protocol;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wnsk_core::WhyNotEngine;
use wnsk_exec::{ExecMetrics, Executor};
use wnsk_obs::Registry;
use wnsk_shard::Coordinator;

/// Longest request line, in bytes without its newline, that a
/// connection may send. A longer line is answered with one protocol
/// error and the connection is closed, so one client cannot grow a
/// connection's buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Answers an over-long request line and lets the caller close the
/// connection.
fn reject_oversized(stream: &mut TcpStream) {
    let response = protocol::render_error(&format!("request line exceeds {MAX_LINE_BYTES} bytes"));
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Server configuration, mirrored by `wnsk serve`'s flags.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads draining the admission queue.
    pub threads: usize,
    /// Admission-queue capacity; requests beyond it are shed.
    pub queue_depth: usize,
    /// Answer-cache capacity (entries per cache structure).
    pub cache_entries: usize,
    /// Artificial per-request service delay — a load knob for shedding
    /// experiments and deterministic queue-full tests; zero in
    /// production.
    pub worker_delay: Duration,
    /// Bind address for the HTTP admin endpoint (`/metrics`,
    /// `/healthz`, `/slow`, `/flight`); `None` leaves it off. Setting
    /// an address implies observability (a default
    /// [`ObservabilityConfig`] is used unless one is given).
    pub admin_addr: Option<String>,
    /// Observability plane configuration (flight recorder, slow-query
    /// log, rolling windows); `None` leaves the plane off unless
    /// `admin_addr` turns it on with defaults.
    pub observability: Option<ObservabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 2,
            queue_depth: 64,
            cache_entries: 256,
            worker_delay: Duration::ZERO,
            admin_addr: None,
            observability: None,
        }
    }
}

struct Job {
    request: ResolvedRequest,
    /// The original wire line, kept verbatim so slow-log entries can be
    /// replayed exactly as received.
    line: String,
    deadline: Option<Duration>,
    enqueued: Instant,
    reply: mpsc::Sender<String>,
}

pub(crate) struct Shared {
    serve: ServeEngine,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_depth: usize,
    worker_delay: Duration,
}

impl Shared {
    /// Admission control: returns the reply channel on acceptance, the
    /// rendered shed/shutdown response otherwise.
    fn submit(
        &self,
        request: ResolvedRequest,
        line: &str,
        deadline: Option<Duration>,
    ) -> Result<mpsc::Receiver<String>, String> {
        let (reply, rx) = mpsc::channel();
        let mut queue = self.queue.lock().unwrap();
        if self.shutdown.load(Ordering::Acquire) {
            return Err(protocol::render_error("server shutting down"));
        }
        if queue.len() >= self.queue_depth {
            drop(queue);
            self.serve.note_shed();
            let response = protocol::render_shed("queue full");
            self.serve
                .observe_admission_shed(&request, line, &response, deadline);
            return Err(response);
        }
        self.serve.note_accepted(queue.len());
        queue.push_back(Job {
            request,
            line: line.to_string(),
            deadline,
            enqueued: Instant::now(),
            reply,
        });
        self.available.notify_one();
        Ok(rx)
    }

    /// Dispatches one admin-endpoint path; `None` renders as 404.
    pub(crate) fn admin_route(&self, path: &str) -> Option<(&'static str, String)> {
        match path {
            "/metrics" => Some((
                "text/plain; version=0.0.4",
                wnsk_obs::prometheus_text(&self.serve.registry().snapshot()),
            )),
            "/healthz" => {
                let queue_len = self.queue.lock().unwrap().len();
                Some((
                    "application/json",
                    self.serve.healthz_json(queue_len, self.queue_depth),
                ))
            }
            "/slow" => Some(("application/json", self.serve.slow_json())),
            "/flight" => Some(("application/json", self.serve.flight_json())),
            _ => None,
        }
    }

    /// One worker's service loop: drain the queue, exit once shutdown
    /// is signalled *and* the queue is empty (queued requests are
    /// answered, not dropped).
    fn pump(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = queue.pop_front() {
                        // The depth left behind at dequeue is the
                        // drain-side `serve.queue_depth` sample.
                        break Some((job, queue.len()));
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        break None;
                    }
                    let (guard, _timeout) = self
                        .available
                        .wait_timeout(queue, Duration::from_millis(50))
                        .unwrap();
                    queue = guard;
                }
            };
            let Some((job, depth_after)) = job else {
                return;
            };
            self.serve.note_dequeued(depth_after);
            if !self.worker_delay.is_zero() {
                std::thread::sleep(self.worker_delay);
            }
            let waited = job.enqueued.elapsed();
            let response =
                self.serve
                    .execute_observed(&job.request, &job.line, job.deadline, waited);
            self.serve.note_request_done(job.enqueued.elapsed());
            let _ = job.reply.send(response);
        }
    }

    /// Handles one client connection: line-framed request/response with
    /// a read timeout so shutdown is observed even on idle connections.
    /// Each read scans only the bytes it appended for newlines, and a
    /// line longer than [`MAX_LINE_BYTES`] gets one error response
    /// before the connection is closed.
    fn handle_connection(&self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        let _ = stream.set_nodelay(true);
        let mut pending: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            match stream.read(&mut chunk) {
                Ok(0) => return,
                Ok(n) => {
                    // `pending` before this read holds no newline.
                    let mut scanned = pending.len();
                    pending.extend_from_slice(&chunk[..n]);
                    let mut start = 0;
                    while let Some(off) = pending[scanned..].iter().position(|&b| b == b'\n') {
                        let end = scanned + off;
                        if end - start > MAX_LINE_BYTES {
                            return reject_oversized(&mut stream);
                        }
                        let line = String::from_utf8_lossy(&pending[start..end]);
                        start = end + 1;
                        scanned = start;
                        let line = line.trim();
                        if line.is_empty() {
                            continue;
                        }
                        let response = self.handle_line(line);
                        if stream.write_all(response.as_bytes()).is_err()
                            || stream.write_all(b"\n").is_err()
                        {
                            return;
                        }
                        let _ = stream.flush();
                    }
                    pending.drain(..start);
                    if pending.len() > MAX_LINE_BYTES {
                        return reject_oversized(&mut stream);
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(_) => return,
            }
        }
    }

    fn handle_line(&self, line: &str) -> String {
        let parsed = match protocol::parse_request(line) {
            Ok(p) => p,
            Err(e) => return protocol::render_error(&e),
        };
        let resolved = match self.serve.resolve(&parsed.request) {
            Ok(r) => r,
            Err(e) => return protocol::render_error(&e),
        };
        match self.submit(resolved, line, parsed.deadline) {
            Ok(rx) => rx
                .recv()
                .unwrap_or_else(|_| protocol::render_error("server shutting down")),
            Err(response) => response,
        }
    }
}

/// The running server. Constructed by [`Server::start`]; dropped or
/// explicitly [`ServerHandle::shutdown`] to stop.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    admin: Option<AdminHandle>,
    shard_admins: Vec<AdminHandle>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-endpoint address, when one was configured.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(AdminHandle::addr)
    }

    /// The bound per-shard admin addresses (sharded servers with an
    /// admin endpoint only; shard order). Each serves that shard's
    /// `/metrics` (the shard primary's registry) and `/healthz` (the
    /// shard status row).
    pub fn shard_admin_addrs(&self) -> Vec<SocketAddr> {
        self.shard_admins.iter().map(AdminHandle::addr).collect()
    }

    /// The shared metrics registry (engine + `serve.*`).
    pub fn registry(&self) -> &Registry {
        self.shared.serve.registry()
    }

    /// The serving engine (for in-process inspection in tests and the
    /// bench gate).
    pub fn serve_engine(&self) -> &ServeEngine {
        &self.shared.serve
    }

    /// Graceful shutdown: stop admitting, answer everything already
    /// queued, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
        if let Some(admin) = self.admin.take() {
            admin.shutdown();
        }
        for admin in std::mem::take(&mut self.shard_admins) {
            admin.shutdown();
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.workers.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.connections.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }

    fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // Best-effort signal; `shutdown()` is the joining path.
        self.stop();
    }
}

/// Builder entry point for the serving layer.
pub struct Server;

impl Server {
    /// Binds `config.addr` and starts the acceptor plus the worker
    /// pool. The engine is expected warm (indexes already built); the
    /// server adds only the cache and admission machinery.
    pub fn start(engine: WhyNotEngine, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let serve = ServeEngine::new(engine, config.cache_entries);
        Self::start_with(serve, config)
    }

    /// Starts a *sharded* server: the scatter-gather coordinator
    /// answers every query (bit-identically to a single engine over the
    /// same corpus), mutations route by partition key, and — when an
    /// admin endpoint is configured — each shard additionally gets its
    /// own admin listener on an ephemeral port (see
    /// [`ServerHandle::shard_admin_addrs`]).
    pub fn start_sharded(
        coordinator: Coordinator,
        config: ServerConfig,
    ) -> std::io::Result<ServerHandle> {
        let serve = ServeEngine::new_sharded(coordinator, config.cache_entries);
        Self::start_with(serve, config)
    }

    fn start_with(mut serve: ServeEngine, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let threads = config.threads.max(1);
        // An admin endpoint without an explicit observability config
        // still gets the default plane: /slow and /flight would
        // otherwise always read empty.
        let observability = config.observability.clone().or_else(|| {
            config
                .admin_addr
                .as_ref()
                .map(|_| ObservabilityConfig::default())
        });
        if let Some(obs_config) = observability {
            serve = serve.with_observability(obs_config);
        }
        let shared = Arc::new(Shared {
            serve,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_depth: config.queue_depth.max(1),
            worker_delay: config.worker_delay,
        });
        let admin = match &config.admin_addr {
            Some(admin_addr) => Some(admin::start(admin_addr, Arc::clone(&shared))?),
            None => None,
        };
        // Per-shard admin planes ride along with the coordinator admin
        // endpoint: one ephemeral-port listener per shard, serving that
        // shard's registry and status row.
        let mut shard_admins = Vec::new();
        if admin.is_some() && shared.serve.is_sharded() {
            let shard_count = shared.serve.coordinator().shard_count();
            for s in 0..shard_count {
                let route_shared = Arc::clone(&shared);
                let route: admin::Router = Arc::new(move |path| {
                    let coord = route_shared.serve.coordinator();
                    match path {
                        "/metrics" => Some((
                            "text/plain; version=0.0.4",
                            wnsk_obs::prometheus_text(&coord.shard_registry(s).snapshot()),
                        )),
                        "/healthz" => coord
                            .shard_statuses()
                            .get(s)
                            .map(|st| ("application/json", st.to_json().render())),
                        _ => None,
                    }
                });
                shard_admins.push(admin::start_with("127.0.0.1:0", route)?);
            }
        }

        // The worker pool: one long-lived pump task per worker, seeded
        // into the work-stealing executor. Each pump loops over the
        // shared queue until shutdown, so requests are genuinely
        // dispatched onto the wnsk-exec pool.
        let pool_shared = Arc::clone(&shared);
        let workers = std::thread::spawn(move || {
            let exec = Executor::new(threads);
            let metrics = ExecMetrics::new(exec.threads());
            let seeds: Vec<usize> = (0..threads).collect();
            let result: Result<Vec<()>, std::convert::Infallible> = exec.run(
                seeds,
                &metrics,
                || false,
                |_| (),
                |_, _pump, _handle| {
                    pool_shared.pump();
                    Ok(())
                },
            );
            result.expect("pump tasks are infallible");
        });

        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_connections = Arc::clone(&connections);
        let acceptor = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let conn_shared = Arc::clone(&accept_shared);
                let handle = std::thread::spawn(move || conn_shared.handle_connection(stream));
                let mut connections = accept_connections.lock().unwrap();
                // Forget connections that already closed, so a
                // long-lived server keeps one handle per live client
                // rather than one per client ever accepted.
                connections.retain(|h| !h.is_finished());
                connections.push(handle);
            }
        });

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            workers: Some(workers),
            connections,
            admin,
            shard_admins,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn closed_connections_do_not_accumulate_handles() {
        let data = wnsk_data::generate(&wnsk_data::DatasetSpec::tiny(7));
        let engine = WhyNotEngine::build_in_memory(data.dataset).unwrap();
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        for _ in 0..200 {
            // One full round trip, then hang up, as a short-lived
            // client does.
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            writeln!(stream, "{}", crate::client::stats_line()).unwrap();
            let mut reply = String::new();
            BufReader::new(&stream).read_line(&mut reply).unwrap();
            assert!(reply.ends_with('\n'), "no stats reply: {reply:?}");
        }
        // The acceptor prunes on each accept; only connections whose
        // thread had not yet seen EOF can remain.
        let held = server.connections.lock().unwrap().len();
        assert!(held <= 8, "{held} connection handles held after 200 closed");
        server.shutdown();
    }
}
