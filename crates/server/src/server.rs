//! The daemon: listeners, connection threads, and leader-run batching.
//!
//! ```text
//!  conn thread ──┐  enqueue(Job)     ┌─ leader (the conn thread that found
//!  conn thread ──┼──► bounded queue ─┤  no round running) runs one engine
//!  conn thread ──┘   (admission)     └─ batch, replies, hands off the lead
//! ```
//!
//! Each connection is served by one thread that reads a request line,
//! enqueues the work, waits on its private reply channel, and writes
//! the reply — so per-connection reply order is trivially request
//! order. There is no batcher thread: the connection thread that
//! enqueues into an idle queue becomes the *leader* and runs the round
//! itself, so a lone request is dispatched at once with no hand-off.
//! Requests that arrive while a round runs queue up; when the round
//! ends, the leader passes leadership to the first queued job's thread,
//! which takes everything queued as the next round (group commit).
//! Concurrent requests from different connections therefore reach
//! `Engine::run_batch` as one plan, where the planner's dedup stage
//! collapses identical `(block, uarch, mode, detail)` items *across
//! connections* and the two-level annotation cache serves repeats — the
//! same machinery, and the same rows, as the CLI's batch mode.
//!
//! Admission control is a bounded count of queued-plus-in-flight items:
//! a request that would exceed it is rejected immediately with an
//! `overloaded` error rather than queued behind an unbounded backlog.
//! A request may carry a deadline; if it is still queued when its
//! deadline passes, the round that dequeues it drops it with
//! `deadline-exceeded` instead of spending engine time on an answer
//! nobody is waiting for.
//!
//! Shutdown ([`Server::stop`], or a signal via [`sig`]) is a drain, not
//! an abort: listeners stop accepting, idle connections close, admitted
//! requests run to completion and their replies are written, and the
//! queue empties.

use crate::protocol::{self, Parsed, ProtoError, Request};
use facile_engine::{
    panic_payload, BatchItem, BreakerSpec, CacheBudget, Engine, EngineStats, ExternalPredictor,
    ExternalSpec, ItemResult, Predictor,
};
use facile_util::PoisonlessMutex;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often idle server threads wake to check for a drain: the
/// acceptor's `poll` timeout and the connection threads' read timeout.
const DRAIN_TICK: Duration = Duration::from_millis(100);

/// Where the server listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A Unix-domain socket at the given path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address in `host:port` form (port `0` = ephemeral).
    Tcp(String),
}

/// Server tuning knobs. `ServerConfig::new(endpoint)` gives defaults
/// sized for an interactive daemon; every field is public.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen endpoint.
    pub endpoint: Endpoint,
    /// Engine worker threads (`0` = one per host CPU).
    pub threads: usize,
    /// Default predictor selector for requests that omit `predictors`.
    pub predictors: String,
    /// Admission bound: queued + in-flight batch items.
    pub queue_cap: usize,
    /// Largest number of items one leader round takes into its engine
    /// batch (the first queued job is always taken whole).
    pub max_batch_items: usize,
    /// Longest accepted request line, in bytes.
    pub max_line_bytes: usize,
    /// Deterministic fault-injection spec (see the `facile-faults`
    /// crate), armed at startup. Ignored — with a warning left to the
    /// caller — in builds without the `fault-injection` feature.
    pub faults: Option<String>,
    /// External predictor tools to register alongside the builtins
    /// (each reachable under its `ext:<name>` key in request selectors).
    pub external: Vec<ExternalSpec>,
    /// Total memory budget shared by the annotation, intern-table, and
    /// external-result caches. `None` = unbounded (the legacy behavior).
    pub cache_budget: Option<CacheBudget>,
    /// Largest number of batch items one request may carry
    /// (`0` = unlimited): a per-connection fairness cap, checked before
    /// the global admission bound.
    pub conn_max_items: usize,
    /// Per-connection prediction requests per second (`0` = unlimited),
    /// enforced by a token bucket whose burst equals the rate.
    pub conn_rps: u64,
    /// Default circuit breaker applied to every external spec that does
    /// not carry its own (`None` = the legacy give-up-forever behavior).
    pub breaker: Option<BreakerSpec>,
}

impl ServerConfig {
    /// Defaults for the given endpoint.
    #[must_use]
    pub fn new(endpoint: Endpoint) -> ServerConfig {
        ServerConfig {
            endpoint,
            threads: 0,
            predictors: "facile".to_string(),
            queue_cap: 65_536,
            max_batch_items: 8_192,
            max_line_bytes: 1 << 20,
            faults: None,
            external: Vec::new(),
            cache_budget: None,
            conn_max_items: 0,
            conn_rps: 0,
            breaker: Some(BreakerSpec::default()),
        }
    }
}

/// Monotonic serving counters, exposed by the `stats` op.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Request lines handled (including rejected ones).
    pub requests: AtomicU64,
    /// Prediction rows served.
    pub rows: AtomicU64,
    /// Engine batches dispatched by leader rounds.
    pub batches: AtomicU64,
    /// Items across those batches (≥ jobs; cross-connection gathering
    /// makes this exceed per-request item counts).
    pub batched_items: AtomicU64,
    /// Requests rejected at admission (`overloaded`).
    pub rejected_overload: AtomicU64,
    /// Requests dropped in the queue (`deadline-exceeded`).
    pub rejected_deadline: AtomicU64,
    /// Lines rejected before reaching the engine (`bad-json`,
    /// `bad-request`, `line-too-long`).
    pub protocol_errors: AtomicU64,
    /// Leader rounds that panicked outside the engine's per-item and
    /// per-batch containment; their requests were answered `internal`.
    pub batcher_restarts: AtomicU64,
    /// Requests rejected by per-connection limits (item cap or rate).
    pub rejected_conn_limit: AtomicU64,
    /// `batch` requests shed while the server was degraded or shedding.
    pub shed_batch: AtomicU64,
    /// `predict` requests shed while the server was shedding.
    pub shed_predict: AtomicU64,
}

impl ServerCounters {
    /// The counters as a JSON object (the `stats` reply's
    /// `"server"` member).
    #[must_use]
    pub fn to_json(&self) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{{\"connections\":{},\"requests\":{},\"rows\":{},\"batches\":{},\
             \"batched_items\":{},\"rejected_overload\":{},\"rejected_deadline\":{},\
             \"protocol_errors\":{},\"batcher_restarts\":{},\"rejected_conn_limit\":{},\
             \"shed_batch\":{},\"shed_predict\":{}}}",
            g(&self.connections),
            g(&self.requests),
            g(&self.rows),
            g(&self.batches),
            g(&self.batched_items),
            g(&self.rejected_overload),
            g(&self.rejected_deadline),
            g(&self.protocol_errors),
            g(&self.batcher_restarts),
            g(&self.rejected_conn_limit),
            g(&self.shed_batch),
            g(&self.shed_predict),
        )
    }
}

/// One queued request: the engine work plus the channel its connection
/// thread is blocked on.
struct Job {
    items: Vec<BatchItem>,
    selector: Arc<str>,
    deadline: Option<Instant>,
    reply: mpsc::Sender<JobReply>,
}

/// What a leader round sends to a waiting connection thread.
enum JobReply {
    /// This job's slice of the batch rows, in item order.
    Rows(Vec<ItemResult>),
    /// The job was dropped before (or instead of) running.
    Err {
        /// Protocol error code.
        code: &'static str,
        /// Human-readable detail.
        message: String,
    },
    /// This job is first in the queue and the round before it has
    /// ended: its thread now leads the next round.
    Lead,
}

/// The waiting jobs and the leadership flag, under one lock, so a job
/// is never pushed just after the leader found the queue empty.
#[derive(Default)]
struct Queue {
    jobs: Vec<Job>,
    /// A connection thread is running a round, or a [`JobReply::Lead`]
    /// is on its way to the next one. Clear only while `jobs` is empty.
    leading: bool,
}

struct Shared {
    engine: Engine,
    cfg: ServerConfig,
    queue: PoisonlessMutex<Queue>,
    /// Queued + in-flight items (admission control). Incremented at
    /// admission, decremented when the job's reply is sent.
    pending_items: AtomicUsize,
    /// Set once: stop accepting, drain, exit.
    draining: AtomicBool,
    counters: ServerCounters,
    /// The registered external predictors, kept for stats and breaker
    /// introspection.
    externals: Vec<Arc<ExternalPredictor>>,
    /// Current degradation tier: 0 = ok, 1 = degraded, 2 = shedding.
    tier: AtomicU8,
}

/// Degradation-tier names, indexed by the `Shared::tier` value.
const TIER_NAMES: [&str; 3] = ["ok", "degraded", "shedding"];

/// Pressure above which `batch` requests are shed.
const DEGRADED_PRESSURE: f64 = 0.80;
/// Pressure above which `predict` requests are shed too.
const SHEDDING_PRESSURE: f64 = 0.95;

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || sig::requested()
    }

    /// Load pressure in `[0, ∞)`: queue occupancy, pending items over
    /// the admission cap. Memory is not a term: each cache enforces its
    /// share of the budget at insert, and shedding work would free none
    /// of it.
    fn pressure(&self) -> f64 {
        if self.cfg.queue_cap == 0 {
            0.0
        } else {
            self.pending_items.load(Ordering::Relaxed) as f64 / self.cfg.queue_cap as f64
        }
    }

    /// Fold the current pressure into the degradation tier, logging each
    /// transition once per edge.
    fn observe_tier(&self, pressure: f64) -> u8 {
        let tier = if pressure >= SHEDDING_PRESSURE {
            2
        } else if pressure >= DEGRADED_PRESSURE {
            1
        } else {
            0
        };
        let prev = self.tier.swap(tier, Ordering::Relaxed);
        if prev != tier {
            eprintln!(
                "facile-serve: degradation tier {} -> {} (pressure {pressure:.2})",
                TIER_NAMES[prev as usize], TIER_NAMES[tier as usize]
            );
        }
        tier
    }

    /// The `stats` reply's `"server"` object: the monotonic counters
    /// plus governance state (tier, pressure, budget occupancy, and
    /// per-external breaker/cache figures). `engine` is the snapshot the
    /// same reply renders, so the budget's `bytes` is the sum of the
    /// cache bytes printed beside it.
    fn server_stats_json(&self, engine: &EngineStats) -> String {
        let mut s = self.counters.to_json();
        s.pop(); // reopen the counters object to append members
        let tier = self.tier.load(Ordering::Relaxed);
        s.push_str(&format!(
            ",\"tier\":\"{}\",\"pressure\":{:.2}",
            TIER_NAMES[tier as usize],
            self.pressure()
        ));
        let ext_bytes: Vec<usize> = self.externals.iter().map(|e| e.cache_bytes()).collect();
        if let Some(b) = &self.cfg.cache_budget {
            s.push_str(&format!(
                ",\"budget\":{{\"bytes\":{},\"total\":{}}}",
                engine.annotation.bytes + engine.intern.bytes + ext_bytes.iter().sum::<usize>(),
                b.total
            ));
        }
        s.push_str(",\"external\":[");
        for (i, (ext, bytes)) in self.externals.iter().zip(&ext_bytes).enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"breaker_open\":{},\"breaker_trips\":{},\
                 \"cache_bytes\":{},\"cache_evictions\":{}}}",
                ext.name(),
                ext.breaker_open(),
                ext.breaker_trips(),
                bytes,
                ext.cache_evictions()
            ));
        }
        s.push_str("]}");
        s
    }
}

/// The address a started server actually listens on (the TCP variant
/// carries the resolved ephemeral port).
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// Resolved TCP address.
    Tcp(SocketAddr),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            BoundAddr::Unix(p) => write!(f, "{}", p.display()),
            BoundAddr::Tcp(a) => write!(f, "{a}"),
        }
    }
}

enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| {
                // Replies are small; Nagle + delayed ACK would add tens
                // of milliseconds to every round trip.
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    /// Wait until a connection is ready to accept or `timeout` passes;
    /// `Ok(false)` on timeout or an interrupted wait.
    #[cfg(unix)]
    fn wait_ready(&self, timeout: Duration) -> std::io::Result<bool> {
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[cfg(target_os = "linux")]
        type NFds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NFds = std::ffi::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
        }
        const POLLIN: i16 = 1;
        let mut pfd = PollFd {
            fd: match self {
                Listener::Unix(l) => l.as_raw_fd(),
                Listener::Tcp(l) => l.as_raw_fd(),
            },
            events: POLLIN,
            revents: 0,
        };
        let ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `pfd` is a live, exclusively borrowed pollfd array of
        // length 1 for the whole call.
        match unsafe { poll(&mut pfd, 1, ms) } {
            -1 => {
                let e = std::io::Error::last_os_error();
                if e.kind() == ErrorKind::Interrupted {
                    Ok(false)
                } else {
                    Err(e)
                }
            }
            n => Ok(n > 0),
        }
    }

    /// Without `poll`, fall back to a short sleep between accept attempts.
    #[cfg(not(unix))]
    fn wait_ready(&self, _timeout: Duration) -> std::io::Result<bool> {
        std::thread::sleep(Duration::from_millis(20));
        Ok(true)
    }
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(t),
            Stream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    fn set_blocking(&self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(false),
            Stream::Tcp(s) => s.set_nonblocking(false),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`Server::stop`] for a clean drain (tests) or park the process on
/// [`Server::run_until_signal`] (the CLI).
pub struct Server {
    shared: Arc<Shared>,
    bound: BoundAddr,
    acceptor: Option<std::thread::JoinHandle<()>>,
    conns: Arc<PoisonlessMutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Bind the endpoint and start the acceptor thread.
    ///
    /// # Errors
    /// Arming a malformed fault spec, binding the endpoint, or spawning
    /// the server threads can fail.
    pub fn start(mut cfg: ServerConfig) -> std::io::Result<Server> {
        if let Some(spec) = cfg.faults.as_deref() {
            // A malformed spec is a configuration error; arming in a
            // build without injection compiled in is a silent no-op
            // (configure returns Ok(false)) that the CLI warns about.
            facile_faults::configure(spec)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
        }
        let threads = if cfg.threads == 0 {
            facile_engine::host_threads()
        } else {
            cfg.threads
        };
        // External specs without their own breaker inherit the server
        // default, so a sick tool trips open instead of giving up forever.
        if let Some(b) = cfg.breaker {
            for spec in &mut cfg.external {
                spec.breaker.get_or_insert(b);
            }
        }
        let mut engine = Engine::with_builtins().with_threads(threads);
        let mut externals: Vec<Arc<ExternalPredictor>> = Vec::with_capacity(cfg.external.len());
        for spec in &cfg.external {
            let pred = Arc::new(ExternalPredictor::new(spec.clone()));
            externals.push(Arc::clone(&pred));
            engine.registry_mut().register(pred);
        }
        if let Some(b) = &cfg.cache_budget {
            engine.apply_cache_budget(b);
            for ext in &externals {
                ext.set_cache_capacity(b.external_capacity() / externals.len());
            }
        }

        let (listener, bound) = match &cfg.endpoint {
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                if path.exists() {
                    // A connectable socket means another daemon is live;
                    // a dangling one is a stale leftover to replace.
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            ErrorKind::AddrInUse,
                            format!("{} is already being served", path.display()),
                        ));
                    }
                    let _ = std::fs::remove_file(path);
                }
                (
                    Listener::Unix(UnixListener::bind(path)?),
                    BoundAddr::Unix(path.clone()),
                )
            }
            Endpoint::Tcp(addr) => {
                let l = TcpListener::bind(addr)?;
                let local = l.local_addr()?;
                (Listener::Tcp(l), BoundAddr::Tcp(local))
            }
        };
        listener.set_nonblocking(true)?;

        let shared = Arc::new(Shared {
            engine,
            cfg,
            queue: PoisonlessMutex::new(Queue::default()),
            pending_items: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            counters: ServerCounters::default(),
            externals,
            tier: AtomicU8::new(0),
        });
        let conns: Arc<PoisonlessMutex<Vec<std::thread::JoinHandle<()>>>> = Arc::default();

        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("facile-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, &conns))?
        };
        Ok(Server {
            shared,
            bound,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The address the server actually listens on.
    #[must_use]
    pub fn bound(&self) -> &BoundAddr {
        &self.bound
    }

    /// The serving counters.
    #[must_use]
    pub fn counters(&self) -> &ServerCounters {
        &self.shared.counters
    }

    /// Block until a termination signal is delivered (see [`sig`]),
    /// then drain and stop.
    pub fn run_until_signal(self) {
        while !sig::requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop()
    }

    /// Drain and stop: reject new connections, let in-flight requests
    /// finish, join every thread, and remove a Unix socket file.
    pub fn stop(mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Acceptor is down: the connection list is final. Connection
        // threads see `draining` via their read timeouts and exit after
        // finishing the request they are on; a queued job is answered
        // before its thread returns, so the queue is empty once they
        // have all joined.
        let handles = std::mem::take(&mut *self.conns.lock());
        for h in handles {
            let _ = h.join();
        }
        #[cfg(unix)]
        if let BoundAddr::Unix(path) = &self.bound {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Accept connections until a drain, one thread each. The listener is
/// non-blocking, so a spurious readiness report costs one `WouldBlock`
/// and a return to `poll`, never a blocked `accept`.
fn acceptor_loop(
    listener: &Listener,
    shared: &Arc<Shared>,
    conns: &Arc<PoisonlessMutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.draining() {
        match listener.wait_ready(DRAIN_TICK) {
            Ok(true) => {}
            Ok(false) => continue,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        }
        match listener.accept() {
            Ok(stream) => {
                shared.counters.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name("facile-conn".into())
                    .spawn(move || connection_loop(stream, &shared));
                let mut conns = conns.lock();
                reap_finished(&mut conns);
                if let Ok(h) = handle {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            // Out of descriptors (EMFILE) and the like: back off rather
            // than spin on a listener that stays ready.
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Join the connection threads that have exited: an exited thread
/// keeps its stack until it is joined.
fn reap_finished(conns: &mut Vec<std::thread::JoinHandle<()>>) {
    let (done, live) = std::mem::take(conns)
        .into_iter()
        .partition(std::thread::JoinHandle::is_finished);
    *conns = live;
    for h in done {
        let _ = h.join();
    }
}

/// Per-connection governance state: the request-rate token bucket
/// (burst = the configured rate, refilled continuously by wall clock).
struct ConnState {
    tokens: f64,
    last_refill: Instant,
}

impl ConnState {
    fn new(rps: u64) -> ConnState {
        ConnState {
            tokens: rps as f64,
            last_refill: Instant::now(),
        }
    }

    /// Take one token if available (always true when unlimited).
    fn admit(&mut self, rps: u64) -> bool {
        if rps == 0 {
            return true;
        }
        let now = Instant::now();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.tokens = (self.tokens + elapsed * rps as f64).min(rps as f64);
        if self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }
}

/// Read NDJSON lines off one connection and serve them in order.
fn connection_loop(stream: Stream, shared: &Arc<Shared>) {
    let mut conn = ConnState::new(shared.cfg.conn_rps);
    // The accepted stream inherits the listener's non-blocking flag;
    // switch to blocking reads with a timeout so the thread can notice
    // a drain without a wake-up channel.
    let _ = stream.set_blocking();
    let _ = stream.set_read_timeout(Some(DRAIN_TICK));
    let mut stream = stream;
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    // How much of `buf` is known to hold no newline, so a line that
    // arrives over many reads is searched once, not once per read.
    let mut scanned = 0;
    'conn: loop {
        // Serve every complete line currently buffered.
        while let Some(nl) = buf[scanned..].iter().position(|&b| b == b'\n') {
            let nl = scanned + nl;
            scanned = 0;
            let line: Vec<u8> = buf.drain(..=nl).collect();
            let line = String::from_utf8_lossy(&line[..nl]);
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            // Fault injection: hang up before processing this line, as a
            // crashing peer / dying network would. The request is never
            // handled, so it is not counted as one.
            if facile_faults::decide_seq(facile_faults::Point::ConnDrop) {
                break 'conn;
            }
            shared.counters.requests.fetch_add(1, Ordering::Relaxed);
            if line.len() > shared.cfg.max_line_bytes {
                // A complete over-long line: the boundary is known, so
                // reject just this request and keep the connection.
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                let reply = protocol::error_reply(
                    None,
                    "line-too-long",
                    &format!("request line exceeds {} bytes", shared.cfg.max_line_bytes),
                );
                if write_line(&mut stream, reply).is_err() {
                    break 'conn;
                }
                continue;
            }
            let reply = handle_line(line, shared, &mut conn);
            if write_line(&mut stream, reply).is_err() {
                break 'conn;
            }
        }
        scanned = buf.len();
        if shared.draining() {
            // Drain: every complete line received so far has been
            // answered; close instead of reading further requests.
            break;
        }
        if buf.len() > shared.cfg.max_line_bytes {
            // An unterminated over-long line: reject and hang up (the
            // line boundary is lost, so resynchronizing is guesswork).
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let reply = protocol::error_reply(
                None,
                "line-too-long",
                &format!("request line exceeds {} bytes", shared.cfg.max_line_bytes),
            );
            let _ = write_line(&mut stream, reply);
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Idle poll tick: close idle connections on drain.
                if shared.draining() && buf.is_empty() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Write `line` and its newline with one `write`: with `TCP_NODELAY`,
/// two writes would go out as two segments.
fn write_line(stream: &mut Stream, mut line: String) -> std::io::Result<()> {
    line.push('\n');
    stream.write_all(line.as_bytes())?;
    stream.flush()
}

/// One request line in, one reply line out.
fn handle_line(line: &str, shared: &Arc<Shared>, conn: &mut ConnState) -> String {
    let parsed = match protocol::parse_request(line) {
        Ok(p) => p,
        Err(ProtoError { id, code, message }) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return protocol::error_reply(id.as_deref(), code, &message);
        }
    };
    let Parsed { id, request } = parsed;
    let id = id.as_deref();
    match request {
        Request::Ping => protocol::pong_reply(id),
        Request::Stats => {
            let engine = shared.engine.snapshot();
            protocol::stats_reply(id, &shared.server_stats_json(&engine), &engine.to_json())
        }
        Request::Health => {
            let pressure = shared.pressure();
            let tier = shared.observe_tier(pressure);
            protocol::health_reply(id, TIER_NAMES[tier as usize], pressure)
        }
        Request::Predict(work) => {
            if work.items.is_empty() {
                return protocol::rows_reply(id, &[], work.render, work.explain);
            }
            let n = work.items.len();
            // Per-connection fairness: an oversized request is rejected
            // before it can monopolize the shared admission quota.
            if shared.cfg.conn_max_items > 0 && n > shared.cfg.conn_max_items {
                shared
                    .counters
                    .rejected_conn_limit
                    .fetch_add(1, Ordering::Relaxed);
                return protocol::error_reply(
                    id,
                    "overloaded",
                    &format!(
                        "request carries {n} items, above this connection's {}-item limit",
                        shared.cfg.conn_max_items
                    ),
                );
            }
            if !conn.admit(shared.cfg.conn_rps) {
                shared
                    .counters
                    .rejected_conn_limit
                    .fetch_add(1, Ordering::Relaxed);
                return protocol::error_reply(
                    id,
                    "overloaded",
                    &format!(
                        "connection rate limit: above {} request(s)/s",
                        shared.cfg.conn_rps
                    ),
                );
            }
            // Degradation tiers: shed the bulk path first, then
            // everything but ping/stats/health.
            let pressure = shared.pressure();
            let tier = shared.observe_tier(pressure);
            if tier == 2 {
                let counter = if work.batch {
                    &shared.counters.shed_batch
                } else {
                    &shared.counters.shed_predict
                };
                counter.fetch_add(1, Ordering::Relaxed);
                return protocol::error_reply(
                    id,
                    "overloaded",
                    &format!(
                        "shedding load: pressure {pressure:.2} is above the shedding watermark"
                    ),
                );
            }
            if tier == 1 && work.batch {
                shared.counters.shed_batch.fetch_add(1, Ordering::Relaxed);
                return protocol::error_reply(
                    id,
                    "overloaded",
                    &format!(
                        "shedding batch requests: pressure {pressure:.2} is above the degraded watermark"
                    ),
                );
            }
            // Admission: reserve quota or reject; never queue unbounded.
            let mut reserved = shared.pending_items.load(Ordering::Relaxed);
            loop {
                if reserved + n > shared.cfg.queue_cap {
                    shared
                        .counters
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    return protocol::error_reply(
                        id,
                        "overloaded",
                        &format!(
                            "queue full: {n} items would exceed the {}-item cap",
                            shared.cfg.queue_cap
                        ),
                    );
                }
                match shared.pending_items.compare_exchange_weak(
                    reserved,
                    reserved + n,
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(cur) => reserved = cur,
                }
            }
            let selector: Arc<str> =
                Arc::from(work.predictors.as_deref().unwrap_or(&shared.cfg.predictors));
            let deadline = work
                .deadline_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms));
            let (tx, rx) = mpsc::channel();
            let job = Job {
                items: work.items,
                selector,
                deadline,
                reply: tx,
            };
            let lead = {
                let mut q = shared.queue.lock();
                q.jobs.push(job);
                !std::mem::replace(&mut q.leading, true)
            };
            if lead {
                lead_round(shared);
            }
            let reply = loop {
                match rx.recv() {
                    Ok(JobReply::Lead) => lead_round(shared),
                    Ok(JobReply::Rows(rows)) => {
                        shared
                            .counters
                            .rows
                            .fetch_add(rows.len() as u64, Ordering::Relaxed);
                        break protocol::rows_reply(id, &rows, work.render, work.explain);
                    }
                    Ok(JobReply::Err { code, message }) => {
                        break protocol::error_reply(id, code, &message)
                    }
                    // A round panicked holding this job (its reply
                    // sender was dropped by the unwind).
                    Err(_) => {
                        break protocol::error_reply(
                            id,
                            "internal",
                            "batcher restarted while the request was in flight",
                        )
                    }
                }
            };
            shared.pending_items.fetch_sub(n, Ordering::SeqCst);
            reply
        }
    }
}

/// Leadership held by the current thread; dropping it hands the lead
/// to the first queued job's thread, or clears the flag when none wait.
struct Leadership<'a>(&'a Shared);

impl Drop for Leadership<'_> {
    fn drop(&mut self) {
        let mut q = self.0.queue.lock();
        match q.jobs.first() {
            // A queued job's thread waits on its reply channel until the
            // job is answered, so the lead always reaches a live thread.
            Some(job) => {
                let _ = job.reply.send(JobReply::Lead);
            }
            None => q.leading = false,
        }
    }
}

/// Lead one round: take the queued jobs, up to `max_batch_items` (the
/// first whole), dispatch them, then hand the lead on. A panic in the
/// dispatch plumbing (the engine contains per-item and per-batch panics,
/// so this should not happen) fails this round's jobs with `internal`
/// and leaves the server serving.
fn lead_round(shared: &Arc<Shared>) {
    let _lead = Leadership(shared);
    let jobs: Vec<Job> = {
        let mut q = shared.queue.lock();
        let mut items = 0;
        let n = q
            .jobs
            .iter()
            .take_while(|j| {
                let room = items < shared.cfg.max_batch_items;
                items += j.items.len();
                room
            })
            .count()
            .max(1);
        q.jobs.drain(..n).collect()
    };
    let round = catch_unwind(AssertUnwindSafe(|| {
        // Fault injection: the leader dies between dequeue and dispatch,
        // the worst moment, since it holds every job of the round.
        facile_faults::maybe_panic_seq(facile_faults::Point::BatcherPanic);
        run_gathered(shared, jobs);
    }));
    if round.is_err() {
        shared
            .counters
            .batcher_restarts
            .fetch_add(1, Ordering::Relaxed);
        eprintln!("facile-serve: a batch round panicked; its requests were answered `internal`");
    }
}

/// Dispatch one gathered set of jobs: drop the expired, then one engine
/// batch per distinct selector, moving each job's rows out of the fan-out.
fn run_gathered(shared: &Arc<Shared>, jobs: Vec<Job>) {
    // Deadlines are judged here, at dequeue: a request whose budget was
    // spent waiting in the queue is answered with an error instead of
    // occupying the engine.
    let now = Instant::now();
    let mut live: Vec<Job> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.deadline.is_some_and(|d| now >= d) {
            shared
                .counters
                .rejected_deadline
                .fetch_add(1, Ordering::Relaxed);
            let _ = job.reply.send(JobReply::Err {
                code: "deadline-exceeded",
                message: "request exceeded its deadline while queued".to_string(),
            });
        } else {
            live.push(job);
        }
    }
    // Group by selector, preserving arrival order within each group.
    let mut groups: Vec<(Arc<str>, Vec<Job>)> = Vec::new();
    for job in live {
        match groups.iter_mut().find(|(s, _)| *s == job.selector) {
            Some((_, g)) => g.push(job),
            None => groups.push((Arc::clone(&job.selector), vec![job])),
        }
    }
    for (selector, group) in groups {
        let items: Vec<BatchItem> = group.iter().flat_map(|j| j.items.iter().cloned()).collect();
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        shared
            .counters
            .batched_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        // The engine already contains per-item panics; this guard covers
        // the planner/fan-out plumbing around them, converting a batch-
        // level panic into `internal-panic` replies for this group only:
        // the jobs in *other* selector groups of the round still get
        // their answers.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            shared.engine.predict_batch(&items, &selector)
        }));
        match outcome {
            Err(payload) => {
                let message = format!("prediction panicked: {}", panic_payload(&*payload));
                for job in group {
                    let _ = job.reply.send(JobReply::Err {
                        code: "internal-panic",
                        message: message.clone(),
                    });
                }
            }
            Ok(Ok(rows)) => {
                // Rows are item-major: item k's rows are the np
                // consecutive rows starting at k*np.
                let np = rows.len() / items.len();
                let mut rows = rows.into_iter();
                for job in group {
                    let mine = rows.by_ref().take(job.items.len() * np).collect();
                    let _ = job.reply.send(JobReply::Rows(mine));
                }
            }
            Ok(Err(e)) => {
                // Selector resolution failed (the only whole-batch
                // error): every job in the group asked for it.
                let message = e.to_string();
                for job in group {
                    let _ = job.reply.send(JobReply::Err {
                        code: "unknown-predictor",
                        message: message.clone(),
                    });
                }
            }
        }
    }
}

/// Process-wide termination-signal latch (std-only: libc is already
/// linked, so `signal(2)` is declared directly).
pub mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: the one operation that is both
        // async-signal-safe and enough to request a drain.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    /// Latch SIGINT and SIGTERM into [`requested`]. Idempotent; a no-op
    /// off Unix.
    pub fn install() {
        #[cfg(unix)]
        {
            extern "C" {
                fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
            }
            unsafe {
                signal(2, on_signal); // SIGINT
                signal(15, on_signal); // SIGTERM
            }
        }
    }

    /// Whether a termination signal has been delivered (or
    /// [`request`] called).
    #[must_use]
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    /// Request a drain programmatically (tests; equivalent to a
    /// signal).
    pub fn request() {
        REQUESTED.store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn finished_connection_threads_are_reaped() {
        let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
        cfg.threads = 1;
        let server = Server::start(cfg).expect("server starts");
        let BoundAddr::Tcp(addr) = *server.bound() else {
            panic!("expected a TCP address");
        };
        for i in 0..64 {
            if i > 0 {
                // The previous connection is closed, but its thread may
                // not have seen EOF yet: an accept only joins threads
                // that have exited, so wait for it (once the acceptor
                // has stored its handle) before the next connect.
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    let conns = server.conns.lock();
                    if !conns.is_empty() && conns.iter().all(std::thread::JoinHandle::is_finished) {
                        break;
                    }
                    drop(conns);
                    assert!(Instant::now() < deadline, "connection {i} never exited");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            let mut tx = TcpStream::connect(addr).expect("connects");
            tx.write_all(b"{\"op\":\"ping\"}\n")
                .expect("request writes");
            let mut reply = String::new();
            BufReader::new(&tx)
                .read_line(&mut reply)
                .expect("reply arrives");
            assert!(reply.starts_with("{\"ok\":true"), "{reply}");
        }
        // Each accept joins the threads that have exited, so only the
        // last connection and perhaps the one before it are still held.
        let held = server.conns.lock().len();
        assert!(held <= 2, "{held} connection handles retained");
        server.stop();
    }

    #[test]
    fn a_zero_batch_cap_still_serves_each_request() {
        let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
        cfg.threads = 1;
        cfg.max_batch_items = 0;
        let server = Server::start(cfg).expect("server starts");
        let BoundAddr::Tcp(addr) = *server.bound() else {
            panic!("expected a TCP address");
        };
        let mut tx = TcpStream::connect(addr).expect("connects");
        // A round that takes no job would hand the lead to itself forever.
        tx.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        tx.write_all(b"{\"op\":\"predict\",\"block\":\"90\"}\n")
            .expect("request writes");
        let mut reply = String::new();
        BufReader::new(&tx)
            .read_line(&mut reply)
            .expect("reply arrives");
        assert!(reply.starts_with("{\"ok\":true,\"rows\""), "{reply}");
        server.stop();
    }
}
