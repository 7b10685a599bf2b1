//! The serving plane: a single reactor thread multiplexing every connection
//! over `Poller`, a pool of worker threads executing decoded requests
//! against the [`TenantRegistry`], and layered admission control.
//!
//! ## Threading model
//!
//! The reactor owns all sockets.  It accepts, reads, parses complete
//! protocol units out of each connection's buffer, and hands them to the
//! worker pool through a condvar-signalled job queue — acquiring each
//! unit's global admission slot *at enqueue time*, so the decision to shed
//! is made before any work is queued.  Workers decode, dispatch admitted
//! requests into the registry, encode the response in the connection's
//! negotiated codec, and push the bytes onto a completion queue; a byte
//! written to the wake pipe returns the reactor from `wait` to flush them
//! out.  Responses therefore complete *out of order* across a pipelining
//! connection — correlation ids are the only association, exactly as the
//! protocol documents.
//!
//! ## Admission layers
//!
//! 1. **Connection cap** (`max_connections`): excess accepts get a
//!    best-effort JSON `Backpressure` line and an immediate close, before
//!    any state is allocated.  Idle and never-greeting connections are
//!    reaped on the reactor's wait tick (`greeting_timeout_ms` /
//!    `idle_timeout_ms`), so slowloris-style sockets cannot pin the cap.
//! 2. **Global in-flight cap** (`max_global_inflight`): the reactor
//!    acquires a slot per unit as it queues the job and the worker releases
//!    it on completion, so the count covers queued *and* executing work.  A
//!    unit that misses a slot still reaches a worker, but only to have its
//!    typed [`ApiError::Backpressure`] encoded under its own correlation id
//!    — the registry is never dispatched, and the shed is attributed to the
//!    target tenant's `admission_global_shed` counter.  (Observability
//!    requests execute with or without a slot, so the plane stays
//!    debuggable during overload.)
//! 3. **Per-tenant quota** ([`ServiceConfig::max_inflight`]): enforced
//!    inside the registry via [`TenantRegistry::admit`].  This bounds
//!    *executing* concurrency per tenant — which can never exceed the
//!    worker count — so the quota only sheds when set below `workers`;
//!    queue buildup is the global cap's job.
//! 4. **Pipeline cap** (`max_pipeline`): a connection with too many
//!    unanswered requests stops being read — TCP backpressure, nothing is
//!    shed.  Together with the connection cap this also bounds the job
//!    queue: at most `max_connections × max_pipeline` units can ever be
//!    queued, and admitted (slot-holding) units among them at most
//!    `max_global_inflight`.
//!
//! [`ServiceConfig::max_inflight`]: templar_service::ServiceConfig

use crate::conn::{Conn, Parsed, Proto, Unit};
use crate::poller::{Event, Interest, Poller};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use templar_api::binary::{self, WireCodec};
use templar_api::{
    decode_request, encode_response, ApiError, RequestBody, ResponseEnvelope, MAX_FRAME_BYTES,
};
use templar_service::TenantRegistry;

const LISTENER_TOKEN: u64 = 0;
const WAKE_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;
const READ_CHUNK: usize = 16 * 1024;
/// Reactor wait timeout — a liveness backstop; shutdown and completions
/// arrive through the wake pipe, not this tick.
const WAIT_MS: i32 = 250;
/// Per-readiness-event read budget, in `READ_CHUNK`s.  A peer that sends
/// faster than the reactor drains must not starve every other connection
/// or grow `inbuf` past the frame cap before the oversize checks run;
/// level-triggered readiness resumes the read on the next tick.
const READ_BURST_CHUNKS: usize = 8;
/// How often the reactor sweeps for timed-out connections (also the
/// precision bound of the two timeouts below).
const SWEEP_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);

/// Tunables of one serving plane.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`TemplarServer::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Accept-time connection cap (admission layer 1).
    pub max_connections: usize,
    /// Server-wide in-flight request cap (admission layer 2).
    pub max_global_inflight: usize,
    /// Unanswered pipelined requests per connection before reads pause
    /// (admission layer 4 — backpressure, not shedding).
    pub max_pipeline: usize,
    /// Largest accepted frame or line, bytes.
    pub max_frame_bytes: usize,
    /// Use the portable `poll` backend even where `epoll` exists.
    pub force_poll: bool,
    /// A connection that has not completed its greeting within this window
    /// is closed (it holds a `max_connections` slot while deciding
    /// nothing).
    pub greeting_timeout_ms: u64,
    /// A greeted connection with no read or write progress for this long
    /// (and no request in flight) is closed — idle sockets must not pin
    /// the connection cap forever.
    pub idle_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_connections: 1024,
            max_global_inflight: 256,
            max_pipeline: 128,
            max_frame_bytes: MAX_FRAME_BYTES,
            force_poll: false,
            greeting_timeout_ms: 5_000,
            idle_timeout_ms: 300_000,
        }
    }
}

impl ServerConfig {
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap.max(1);
        self
    }

    pub fn with_max_global_inflight(mut self, cap: usize) -> Self {
        self.max_global_inflight = cap.max(1);
        self
    }

    pub fn with_max_pipeline(mut self, cap: usize) -> Self {
        self.max_pipeline = cap.max(1);
        self
    }

    pub fn with_force_poll(mut self, force: bool) -> Self {
        self.force_poll = force;
        self
    }

    pub fn with_greeting_timeout_ms(mut self, ms: u64) -> Self {
        self.greeting_timeout_ms = ms.max(1);
        self
    }

    pub fn with_idle_timeout_ms(mut self, ms: u64) -> Self {
        self.idle_timeout_ms = ms.max(1);
        self
    }
}

/// Serving-plane counters (the transport layer's own observability; tenant
/// metrics live in [`templar_service::ServiceMetrics`]).
#[derive(Debug, Default)]
struct ServerStats {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    connections_closed: AtomicU64,
    connections_timed_out: AtomicU64,
    requests_served: AtomicU64,
    global_sheds: AtomicU64,
    json_requests: AtomicU64,
    binary_requests: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// A point-in-time copy of the serving plane's counters.
///
/// The counters are read one by one while the reactor runs, so a live copy
/// need not be consistent across fields.  In particular `requests_served`
/// counts a response when it is queued for its connection, while
/// `bytes_written` counts bytes only after the socket has accepted them: a
/// live [`TemplarServer::stats`] read can show the first ahead of the
/// second, even for a response the client already holds.  The pair is
/// exact once [`TemplarServer::shutdown`] has joined the reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections admitted past the accept-time cap.
    pub connections_accepted: u64,
    /// Connections turned away at accept time (layer-1 shedding).
    pub connections_rejected: u64,
    /// Admitted connections since closed (either side).
    pub connections_closed: u64,
    /// Closures forced by the greeting or idle timeout (a subset of
    /// `connections_closed`).
    pub connections_timed_out: u64,
    /// Responses queued for their connections, successes and typed
    /// failures alike.
    pub requests_served: u64,
    /// Requests shed by the global in-flight cap (layer 2).
    pub global_sheds: u64,
    /// Requests that arrived on JSON-lines connections.
    pub json_requests: u64,
    /// Requests that arrived on binary connections.
    pub binary_requests: u64,
    /// Bytes read from client sockets.
    pub bytes_read: u64,
    /// Bytes the client sockets accepted, counted after each `write`
    /// returns.
    pub bytes_written: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_rejected: self.connections_rejected.load(Ordering::Relaxed),
            connections_closed: self.connections_closed.load(Ordering::Relaxed),
            connections_timed_out: self.connections_timed_out.load(Ordering::Relaxed),
            requests_served: self.requests_served.load(Ordering::Relaxed),
            global_sheds: self.global_sheds.load(Ordering::Relaxed),
            json_requests: self.json_requests.load(Ordering::Relaxed),
            binary_requests: self.binary_requests.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }
}

/// One parsed-but-undecoded protocol unit bound for a worker.
struct Job {
    token: u64,
    codec: WireCodec,
    unit: Unit,
    /// Whether the reactor won a global in-flight slot for this unit at
    /// enqueue time.  `false` means the worker only decodes far enough to
    /// answer `Backpressure` under the unit's own correlation id (unless
    /// the request turns out to be observability, which always executes).
    admitted_global: bool,
}

/// One encoded response bound for a connection's write buffer.
struct Completion {
    token: u64,
    bytes: Vec<u8>,
}

/// State shared between the reactor, the workers, and the handle.
struct Shared {
    registry: Arc<TenantRegistry>,
    config: ServerConfig,
    stats: ServerStats,
    shutdown: AtomicBool,
    /// Units holding a global admission slot: queued jobs plus executing
    /// requests (acquired by the reactor at enqueue time, released by the
    /// worker on completion).
    global_inflight: AtomicU64,
    /// Job queue (std primitives: the vendored `parking_lot` has no
    /// condvar, and the queue needs one to park idle workers).
    jobs: std::sync::Mutex<VecDeque<Job>>,
    jobs_ready: std::sync::Condvar,
    completions: Mutex<Vec<Completion>>,
    /// Writing one byte returns the reactor from its poll wait.
    wake_tx: Mutex<UnixStream>,
}

impl Shared {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup.
        let _ = self.wake_tx.lock().write(&[1]);
    }
}

/// A running serving plane.  Dropping the handle shuts it down.
pub struct TemplarServer {
    shared: Arc<Shared>,
    local_addr: std::net::SocketAddr,
    poll_fallback: bool,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl TemplarServer {
    /// Bind, spawn the reactor and worker threads, and start serving.
    pub fn start(registry: Arc<TenantRegistry>, config: ServerConfig) -> io::Result<TemplarServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;

        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;

        let mut poller = Poller::new(config.force_poll)?;
        let poll_fallback = poller.is_fallback();
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ)?;

        let shared = Arc::new(Shared {
            registry,
            config: config.clone(),
            stats: ServerStats::default(),
            shutdown: AtomicBool::new(false),
            global_inflight: AtomicU64::new(0),
            jobs: std::sync::Mutex::new(VecDeque::new()),
            jobs_ready: std::sync::Condvar::new(),
            completions: Mutex::new(Vec::new()),
            wake_tx: Mutex::new(wake_tx),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("templar-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("templar-reactor".to_string())
                .spawn(move || {
                    Reactor {
                        shared,
                        poller,
                        listener,
                        wake_rx,
                        conns: HashMap::new(),
                        next_token: FIRST_CONN_TOKEN,
                        last_sweep: std::time::Instant::now(),
                    }
                    .run()
                })?
        };

        Ok(TemplarServer {
            shared,
            local_addr,
            poll_fallback,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address — the port to connect to when the config asked
    /// for an ephemeral one.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Serving-plane counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Whether the reactor runs on the portable `poll` fallback.
    pub fn is_poll_fallback(&self) -> bool {
        self.poll_fallback
    }

    /// Stop accepting, close every connection, and join all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake();
        self.shared.jobs_ready.notify_all();
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            self.shared.jobs_ready.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for TemplarServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    /// Monotonic, never reused — a stale completion for a closed
    /// connection can never hit its token's successor.
    next_token: u64,
    /// Last idle/greeting-timeout sweep.
    last_sweep: std::time::Instant,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            if self.poller.wait(&mut events, WAIT_MS).is_err() {
                break;
            }
            for event in &events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    token => self.conn_ready(token, event),
                }
            }
            self.apply_completions();
            self.sweep_timeouts();
        }
    }

    /// Reap connections whose activity clock went stale: still greeting
    /// past `greeting_timeout_ms`, or greeted but making no read/write
    /// progress for `idle_timeout_ms`.  Connections with requests in
    /// flight are never reaped — a quiet socket waiting on a slow request
    /// is not idle.
    fn sweep_timeouts(&mut self) {
        let now = std::time::Instant::now();
        if now.duration_since(self.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        self.last_sweep = now;
        let greeting = std::time::Duration::from_millis(self.shared.config.greeting_timeout_ms);
        let idle = std::time::Duration::from_millis(self.shared.config.idle_timeout_ms);
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter_map(|(&token, conn)| {
                if conn.inflight > 0 {
                    return None;
                }
                let limit = if conn.proto == Proto::Greeting {
                    greeting
                } else {
                    idle
                };
                (now.duration_since(conn.last_activity) >= limit).then_some(token)
            })
            .collect();
        for token in expired {
            self.shared
                .stats
                .connections_timed_out
                .fetch_add(1, Ordering::Relaxed);
            self.close(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit_connection(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn admit_connection(&mut self, stream: TcpStream) {
        if self.conns.len() >= self.shared.config.max_connections {
            // Layer-1 shedding: answer before any state is allocated.  The
            // codec is unknown this early, so the reply is the JSON form —
            // debuggable from any client.
            self.shared
                .stats
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            let mut line =
                encode_response(&ResponseEnvelope::failure(0, ApiError::Backpressure)).into_bytes();
            line.push(b'\n');
            let mut stream = stream;
            let _ = stream.set_nonblocking(true);
            let _ = stream.write(&line);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(token, Conn::new(stream));
        self.shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
    }

    fn drain_wake(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    fn conn_ready(&mut self, token: u64, event: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if event.hangup {
            self.close(token);
            return;
        }
        let mut dead = false;
        if event.writable {
            dead |= flush(conn, &self.shared.stats).is_err();
        }
        if event.readable && !conn.read_paused && !conn.closing {
            dead |= self.read_ready(token);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if dead || (conn.closing && conn.outbuf.is_empty() && conn.inflight == 0) {
            self.close(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Read a bounded burst, parse, acquire admission slots, enqueue jobs.
    /// Returns true when the connection is finished.
    fn read_ready(&mut self, token: u64) -> bool {
        let Some(conn) = self.conns.get_mut(&token) else {
            // The caller looked the token up, but a racing close between the
            // two lookups must not panic the reactor thread.
            return true;
        };
        let mut chunk = [0u8; READ_CHUNK];
        let mut budget = READ_BURST_CHUNKS;
        // Stop at the burst budget or once the buffer could already hold
        // the largest legal unit (prefix included) — a faster-than-drained
        // peer must not starve the reactor or grow `inbuf` unboundedly.
        // Level-triggered readiness resumes the read on the next tick.
        let inbuf_high_water = self.shared.config.max_frame_bytes.saturating_add(4);
        loop {
            if budget == 0 || conn.inbuf.len() > inbuf_high_water {
                break;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer sent FIN; serve what is already buffered, then
                    // let the flush path close.
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    budget -= 1;
                    self.shared
                        .stats
                        .bytes_read
                        .fetch_add(n as u64, Ordering::Relaxed);
                    conn.inbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = std::time::Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return true,
            }
        }
        match conn.parse(self.shared.config.max_frame_bytes) {
            Parsed::Units(units) => {
                let codec = conn.codec();
                if !units.is_empty() {
                    conn.inflight += units.len();
                    let mut jobs = self
                        .shared
                        .jobs
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    for unit in units {
                        // Admission layer 2, decided before the job is
                        // queued (the slot covers queue residency too).
                        let admitted_global = try_acquire_global(
                            &self.shared.global_inflight,
                            self.shared.config.max_global_inflight as u64,
                        );
                        jobs.push_back(Job {
                            token,
                            codec,
                            unit,
                            admitted_global,
                        });
                        self.shared.jobs_ready.notify_one();
                    }
                }
                if conn.inflight >= self.shared.config.max_pipeline {
                    conn.read_paused = true;
                }
                false
            }
            Parsed::Fatal { reply, error } => {
                if let Some(reply) = reply {
                    conn.outbuf.extend(reply);
                } else {
                    // Answer in the connection's own codec so the peer
                    // sees *why* before the close (correlation id 0: the
                    // failed unit never had one recovered).
                    let api_error = error.to_api_error();
                    match conn.codec() {
                        WireCodec::Json => {
                            let mut line =
                                encode_response(&ResponseEnvelope::failure(0, api_error))
                                    .into_bytes();
                            line.push(b'\n');
                            conn.outbuf.extend(line);
                        }
                        WireCodec::Binary => {
                            conn.outbuf
                                .extend(binary::encode_response_frame(0, &Err(api_error)));
                        }
                    }
                }
                conn.closing = true;
                flush(conn, &self.shared.stats).is_err()
            }
        }
    }

    /// Move worker results into their connections' write buffers.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *self.shared.completions.lock());
        let mut touched: Vec<u64> = Vec::with_capacity(completions.len());
        for Completion { token, bytes } in completions {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue; // connection died while the request ran
            };
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.outbuf.extend(bytes);
            if conn.read_paused && conn.inflight < self.shared.config.max_pipeline {
                conn.read_paused = false;
            }
            self.shared
                .stats
                .requests_served
                .fetch_add(1, Ordering::Relaxed);
            touched.push(token);
        }
        for token in touched {
            // Write eagerly: most responses fit the socket buffer, saving
            // a poll round-trip per response.
            let finished = match self.conns.get_mut(&token) {
                Some(conn) => {
                    flush(conn, &self.shared.stats).is_err()
                        || (conn.closing && conn.outbuf.is_empty() && conn.inflight == 0)
                }
                None => continue,
            };
            if finished {
                self.close(token);
            } else {
                self.update_interest(token);
            }
        }
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let interest = Interest {
            readable: !conn.read_paused && !conn.closing,
            writable: !conn.outbuf.is_empty(),
        };
        let _ = self
            .poller
            .reregister(conn.stream.as_raw_fd(), token, interest);
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.deregister(conn.stream.as_raw_fd());
            self.shared
                .stats
                .connections_closed
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Write as much of `outbuf` as the socket takes.  `Err(())` means the
/// connection is gone.
fn flush(conn: &mut Conn, stats: &ServerStats) -> Result<(), ()> {
    while !conn.outbuf.is_empty() {
        let (front, _) = conn.outbuf.as_slices();
        match conn.stream.write(front) {
            Ok(0) => return Err(()),
            Ok(n) => {
                stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                conn.outbuf.drain(..n);
                conn.last_activity = std::time::Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut jobs = shared
                .jobs
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                jobs = shared
                    .jobs_ready
                    .wait(jobs)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Release the enqueue-time slot when the request finishes, even on
        // unwind — a leaked slot would shrink the cap forever.
        let _slot = job
            .admitted_global
            .then(|| GlobalSlotRelease(&shared.global_inflight));
        let bytes = serve_unit(shared, &job);
        shared.completions.lock().push(Completion {
            token: job.token,
            bytes,
        });
        shared.wake();
    }
}

/// Decode → admit → dispatch → encode, in the connection's codec.
fn serve_unit(shared: &Shared, job: &Job) -> Vec<u8> {
    match (&job.unit, job.codec) {
        (Unit::JsonLine(line), _) => {
            shared.stats.json_requests.fetch_add(1, Ordering::Relaxed);
            let envelope = match decode_request(line) {
                Ok(envelope) => envelope,
                Err((id, err)) => return json_response(id, Err(err)),
            };
            json_response(
                envelope.id,
                execute(shared, &envelope.body, job.admitted_global),
            )
        }
        (Unit::BinaryFrame(frame), _) => {
            shared.stats.binary_requests.fetch_add(1, Ordering::Relaxed);
            match binary::decode_request_frame(frame) {
                Err(err) => binary::encode_response_frame(0, &Err(err.to_api_error())),
                Ok((id, Err(err))) => binary::encode_response_frame(id, &Err(err.to_api_error())),
                Ok((id, Ok(body))) => {
                    binary::encode_response_frame(id, &execute(shared, &body, job.admitted_global))
                }
            }
        }
    }
}

fn json_response(id: u64, outcome: Result<templar_api::ResponseBody, ApiError>) -> Vec<u8> {
    let envelope = match outcome {
        Ok(body) => ResponseEnvelope::success(id, body),
        Err(err) => ResponseEnvelope::failure(id, err),
    };
    let mut line = encode_response(&envelope).into_bytes();
    line.push(b'\n');
    line
}

/// The admission ladder in front of the registry: the enqueue-time global
/// slot decision sheds work-consuming requests first (attributed to the
/// target tenant), then the registry enforces the per-tenant quota and
/// dispatches.
fn execute(
    shared: &Shared,
    body: &RequestBody,
    admitted_global: bool,
) -> Result<templar_api::ResponseBody, ApiError> {
    if !body.is_admission_controlled() {
        // Observability must stay readable during overload, slot or not.
        return shared.registry.dispatch(body);
    }
    if !admitted_global {
        shared.stats.global_sheds.fetch_add(1, Ordering::Relaxed);
        if let Some(tenant) = body.tenant() {
            shared.registry.record_global_shed(tenant);
        }
        return Err(ApiError::Backpressure);
    }
    shared.registry.admit_and_dispatch(body)
}

/// Try to take one slot of the server-wide in-flight cap (released via
/// [`GlobalSlotRelease`] when the worker finishes the unit).
fn try_acquire_global(counter: &AtomicU64, cap: u64) -> bool {
    let mut current = counter.load(Ordering::Relaxed);
    loop {
        if current >= cap {
            return false;
        }
        match counter.compare_exchange_weak(
            current,
            current + 1,
            Ordering::AcqRel,
            Ordering::Relaxed,
        ) {
            Ok(_) => return true,
            Err(observed) => current = observed,
        }
    }
}

/// RAII release of a slot acquired with [`try_acquire_global`].
struct GlobalSlotRelease<'a>(&'a AtomicU64);

impl Drop for GlobalSlotRelease<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}
