//! External-predictor adapters: serve any out-of-process tool through
//! the [`Predictor`] trait.
//!
//! An [`ExternalPredictor`] wraps a subprocess speaking a line-oriented
//! JSON protocol on stdin/stdout. The subprocess is spawned once and
//! reused across requests; one request line is written, one reply line is
//! read back, matched by an echoed `id`:
//!
//! ```text
//! -> {"id":0,"op":"version"}
//! <- {"id":0,"version":"mock-1"}
//! -> {"id":1,"op":"predict","block":"4801c8","uarch":"SKL","mode":"tpu"}
//! <- {"id":1,"throughput":1.0}
//! <- {"id":2,"error":"cannot decode block"}        (tool-level error)
//! ```
//!
//! Everything an external tool can do wrong is sandboxed into a typed
//! [`PredictError`] row instead of wedging the batch:
//!
//! * no reply within the per-request timeout → [`PredictError::ExternalTimeout`]
//!   (the subprocess is killed: a late reply would desynchronize ids);
//! * spawn failure, exit, or closed pipes → [`PredictError::ExternalCrashed`];
//! * an unparsable reply or an `id` mismatch → [`PredictError::ExternalMalformed`]
//!   (also kills the subprocess — the stream cannot be resynchronized);
//! * a well-formed `{"error":...}` reply or a non-finite/negative
//!   throughput → [`PredictError::InvalidOutput`] (the tool stays up).
//!
//! After a failure the adapter restarts the tool under **backoff
//! supervision**: the n-th consecutive failure makes the next
//! `2^min(n,6)` requests fail fast with `ExternalCrashed` before a
//! respawn is attempted, and after [`ExternalSpec::max_restarts`]
//! consecutive failures the adapter gives up for good. Backoff is
//! counted in *requests*, not wall time, so batch output stays a pure
//! function of the request sequence.
//!
//! With a [`BreakerSpec`] configured the give-up check is replaced by a
//! **circuit breaker**: at [`BreakerSpec::threshold`] consecutive
//! failures the breaker trips open and requests fail fast with
//! [`PredictError::ExternalCircuitOpen`] (no subprocess work at all)
//! for [`BreakerSpec::cooldown`] requests; then one half-open probe is
//! let through — success closes the breaker, failure reopens it with
//! the cooldown doubled (capped at 64× the base). The tool is never
//! abandoned for good.
//!
//! Successful predictions land in a result cache keyed by `(block
//! bytes, uarch, mode)` per adapter — i.e. `(bytes, uarch, tool,
//! tool-version)` overall, since the cache is cleared when a respawned
//! tool reports a different version. Slow tools thereby ride the
//! engine's planner dedup across batches.
//!
//! Adapters are registered from a `--predictors` selector with
//! [`register_selector_externals`] (`ext:<name>=<command line>` tokens
//! become registry entries under the key `ext:<name>`) or from a config
//! file with [`load_config`].

use crate::error::PredictError;
use crate::predictor::{PredictRequest, Prediction, Predictor};
use crate::registry::PredictorRegistry;
use facile_core::Mode;
use facile_faults as faults;
use facile_uarch::Uarch;
use facile_util::json::{self, Kind};
use facile_util::{HeapSize, PoisonlessMutex, SlruCache};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Default per-request timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(10);

/// Default consecutive-failure budget before the adapter gives up.
pub const DEFAULT_MAX_RESTARTS: u32 = 3;

/// Default circuit-breaker consecutive-failure threshold.
pub const DEFAULT_BREAKER_THRESHOLD: u32 = 5;

/// Default circuit-breaker cooldown, counted in requests.
pub const DEFAULT_BREAKER_COOLDOWN: u64 = 32;

/// Circuit-breaker tuning for an external tool.
///
/// When configured on an [`ExternalSpec`], the breaker *replaces* the
/// supervision loop's give-up check: instead of failing fast forever
/// after `max_restarts` consecutive failures, the adapter trips open at
/// `threshold` consecutive failures, fails fast (code
/// `external-circuit-open`, with no subprocess work at all) for
/// `cooldown` requests, then lets exactly one half-open probe through.
/// A successful probe closes the breaker; a failed probe reopens it
/// with the cooldown doubled (capped at 64× the base). The cooldown is
/// counted in *requests*, not wall time, so batch output stays a pure
/// function of the request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSpec {
    /// Consecutive failures that trip the breaker open. `0` disables
    /// the breaker (legacy give-up supervision applies).
    pub threshold: u32,
    /// Requests to fail fast before a half-open probe, doubled on each
    /// consecutive reopen.
    pub cooldown: u64,
}

impl Default for BreakerSpec {
    fn default() -> BreakerSpec {
        BreakerSpec {
            threshold: DEFAULT_BREAKER_THRESHOLD,
            cooldown: DEFAULT_BREAKER_COOLDOWN,
        }
    }
}

/// How an external tool is launched and supervised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalSpec {
    /// Tool name; the registry key is `ext:<name>`.
    pub name: String,
    /// Command line (argv): program followed by its arguments.
    pub cmd: Vec<String>,
    /// Per-request reply timeout.
    pub timeout: Duration,
    /// Consecutive failures tolerated before the adapter stops
    /// respawning the tool and fails fast forever. Superseded by the
    /// circuit breaker when `breaker` is configured.
    pub max_restarts: u32,
    /// Circuit-breaker tuning; `None` keeps the legacy give-up
    /// supervision (fail fast forever after `max_restarts`).
    pub breaker: Option<BreakerSpec>,
}

impl ExternalSpec {
    /// Build a spec from a tool name and a whitespace-split command
    /// line, with default timeout and restart budget.
    ///
    /// # Errors
    /// A descriptive message when the name is empty or contains selector
    /// metacharacters, or when the command line is empty.
    pub fn parse(name: &str, cmdline: &str) -> Result<ExternalSpec, String> {
        if name.is_empty() {
            return Err("external predictor name is empty (use ext:<name>=<cmd>)".to_string());
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        {
            return Err(format!(
                "external predictor name {name:?} may only contain [A-Za-z0-9._-]"
            ));
        }
        let cmd: Vec<String> = cmdline.split_whitespace().map(str::to_string).collect();
        if cmd.is_empty() {
            return Err(format!("external predictor {name:?} has an empty command"));
        }
        Ok(ExternalSpec {
            name: name.to_string(),
            cmd,
            timeout: DEFAULT_TIMEOUT,
            max_restarts: DEFAULT_MAX_RESTARTS,
            breaker: None,
        })
    }

    /// The registry key this spec is served under.
    #[must_use]
    pub fn key(&self) -> String {
        format!("ext:{}", self.name)
    }

    /// Enable the circuit breaker with the given tuning (threshold `0`
    /// keeps it disabled in effect).
    #[must_use]
    pub fn with_breaker(mut self, breaker: BreakerSpec) -> ExternalSpec {
        self.breaker = Some(breaker);
        self
    }
}

/// The version-handshake request line (written once, right after spawn).
#[must_use]
pub fn version_request(id: u64) -> String {
    format!("{{\"id\":{id},\"op\":\"version\"}}")
}

/// One prediction request line. `mode` is written as its wire tag
/// (`tpu`/`tpl`), `uarch` as its abbreviation (`SKL`, ...).
#[must_use]
pub fn predict_request(id: u64, block_hex: &str, uarch: Uarch, mode: Mode) -> String {
    format!(
        "{{\"id\":{id},\"op\":\"predict\",\"block\":\"{block_hex}\",\"uarch\":\"{uarch}\",\"mode\":\"{}\"}}",
        mode_tag(mode)
    )
}

/// The wire tag of a throughput notion.
#[must_use]
pub fn mode_tag(mode: Mode) -> &'static str {
    match mode {
        Mode::Unrolled => "tpu",
        Mode::Loop => "tpl",
    }
}

/// One parsed reply line. Exactly the fields the protocol defines;
/// unknown fields are ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reply {
    /// Echoed request id.
    pub id: Option<u64>,
    /// Predicted throughput (success replies).
    pub throughput: Option<f64>,
    /// Tool-level error message (error replies).
    pub error: Option<String>,
    /// Tool version (handshake replies).
    pub version: Option<String>,
}

/// Parse one reply line: a flat JSON object with string or number
/// values. Nested objects/arrays are protocol violations; unknown keys
/// and literals are ignored, and a repeated key's last value wins.
///
/// # Errors
/// A parse diagnosis (position and expectation) on malformed input.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let start = line.len() - line.trim_start_matches([' ', '\t', '\r', '\n']).len();
    if !line[start..].starts_with('{') {
        return Err(format!("byte {start}: expected '{{'"));
    }
    let v = json::parse(line).map_err(|e| format!("byte {}: {}", e.at, e.reason))?;
    let Kind::Obj(members) = v.kind else {
        unreachable!("a value that starts with '{{' is an object")
    };
    let mut reply = Reply::default();
    for (key, value) in members {
        match (key.as_str(), value.kind) {
            (_, Kind::Arr(_) | Kind::Obj(_)) => {
                return Err(format!("byte {}: expected a flat value", value.span.0));
            }
            ("error", Kind::Str(s)) => reply.error = Some(s),
            ("version", Kind::Str(s)) => reply.version = Some(s),
            ("id", Kind::Num(n)) if n >= 0.0 && n.fract() == 0.0 => {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                {
                    reply.id = Some(n as u64);
                }
            }
            ("throughput", Kind::Num(n)) => reply.throughput = Some(n),
            _ => {}
        }
    }
    Ok(reply)
}

/// A live subprocess: pipes plus the reader thread's line channel.
struct Running {
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<String>,
    version: String,
}

impl Running {
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Supervision state: the child (if healthy), the request-id counter,
/// and the restart bookkeeping.
struct State {
    running: Option<Running>,
    next_id: u64,
    /// Consecutive failures since the last successful reply.
    failures: u32,
    /// Requests to fail fast before the next respawn attempt.
    backoff: u64,
    /// Total respawns performed (after the initial spawn).
    restarts: u64,
    /// Version reported by the last successful handshake.
    version: Option<String>,
    /// Whether the circuit breaker is open (requests fail fast).
    breaker_open: bool,
    /// Requests remaining before the open breaker allows a half-open
    /// probe through.
    cooldown_left: u64,
    /// Consecutive trips without an intervening success (escalates the
    /// cooldown); reset to zero when a probe succeeds.
    consecutive_trips: u32,
    /// Lifetime trip count (monotonic; surfaced in stats).
    trips: u64,
}

/// Result-cache key: `(block bytes, uarch, mode)`. The tool identity is
/// implicit (one cache per adapter) and the tool *version* invalidates
/// the cache wholesale on respawn.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExtKey(Vec<u8>, Uarch, Mode);

impl HeapSize for ExtKey {
    fn heap_bytes(&self) -> usize {
        self.0.capacity()
    }
}

/// A [`Predictor`] served by an external subprocess.
pub struct ExternalPredictor {
    spec: ExternalSpec,
    key: String,
    state: PoisonlessMutex<State>,
    /// Successful predictions, in a byte-bounded cache (unbounded by
    /// default; capped when a budget governs the process).
    cache: SlruCache<ExtKey, f64>,
}

impl ExternalPredictor {
    /// Wrap a spec. The subprocess is spawned lazily, on the first
    /// prediction request.
    #[must_use]
    pub fn new(spec: ExternalSpec) -> ExternalPredictor {
        let key = spec.key();
        ExternalPredictor {
            spec,
            key,
            state: PoisonlessMutex::new(State {
                running: None,
                next_id: 0,
                failures: 0,
                backoff: 0,
                restarts: 0,
                version: None,
                breaker_open: false,
                cooldown_left: 0,
                consecutive_trips: 0,
                trips: 0,
            }),
            cache: SlruCache::new(usize::MAX),
        }
    }

    /// The spec this adapter serves.
    #[must_use]
    pub fn spec(&self) -> &ExternalSpec {
        &self.spec
    }

    /// The tool version reported by the last successful handshake, if
    /// the tool has been spawned yet.
    #[must_use]
    pub fn tool_version(&self) -> Option<String> {
        self.state.lock().version.clone()
    }

    /// Respawns performed so far (excludes the initial spawn).
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.state.lock().restarts
    }

    /// Cached successful predictions.
    #[must_use]
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Accounted bytes resident in the result cache.
    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.cache.bytes()
    }

    /// Result-cache entries evicted by the byte bound.
    #[must_use]
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Cap the result cache at `bytes`, evicting down to it if needed.
    pub fn set_cache_capacity(&self, bytes: usize) {
        self.cache.set_capacity(bytes);
    }

    /// Lifetime circuit-breaker trips (monotonic).
    #[must_use]
    pub fn breaker_trips(&self) -> u64 {
        self.state.lock().trips
    }

    /// Whether the circuit breaker is currently open.
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        self.state.lock().breaker_open
    }

    /// The effective breaker tuning (`None` when absent or disabled by
    /// a zero threshold).
    fn breaker(&self) -> Option<BreakerSpec> {
        self.spec.breaker.filter(|b| b.threshold > 0)
    }

    fn crashed(&self, detail: impl Into<String>) -> PredictError {
        PredictError::ExternalCrashed {
            tool: self.key.clone(),
            detail: detail.into(),
        }
    }

    fn malformed(&self, detail: impl Into<String>) -> PredictError {
        PredictError::ExternalMalformed {
            tool: self.key.clone(),
            detail: detail.into(),
        }
    }

    fn timeout_error(&self) -> PredictError {
        PredictError::ExternalTimeout {
            tool: self.key.clone(),
            timeout_ms: u64::try_from(self.spec.timeout.as_millis()).unwrap_or(u64::MAX),
        }
    }

    /// Record a failure: kill the child (if any) and arm the backoff
    /// window for the next respawn. With a circuit breaker configured,
    /// hitting the consecutive-failure threshold (or failing a
    /// half-open probe) trips the breaker open instead: the backoff is
    /// cleared (the breaker's cooldown takes over) and the next
    /// `cooldown` requests fail fast without touching the subprocess.
    fn note_failure(&self, st: &mut State) {
        if let Some(r) = st.running.take() {
            r.kill();
        }
        st.failures = st.failures.saturating_add(1);
        st.backoff = 1u64 << st.failures.min(6);
        if let Some(b) = self.breaker() {
            if st.breaker_open || st.failures >= b.threshold {
                // Trip (or re-trip after a failed probe): consecutive
                // reopens double the cooldown, capped at 64× the base.
                st.breaker_open = true;
                st.trips += 1;
                st.consecutive_trips = st.consecutive_trips.saturating_add(1);
                st.cooldown_left = b.cooldown << (st.consecutive_trips - 1).min(6);
                st.backoff = 0;
                st.failures = 0;
            }
        }
    }

    /// Spawn the subprocess and run the version handshake.
    fn spawn(&self, st: &mut State) -> Result<(), PredictError> {
        let mut child = Command::new(&self.spec.cmd[0])
            .args(&self.spec.cmd[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| self.crashed(format!("cannot spawn {:?}: {e}", self.spec.cmd[0])))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let name = format!("ext-{}", self.spec.name);
        std::thread::Builder::new()
            .name(name)
            .spawn(move || {
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if tx.send(line.trim_end().to_string()).is_err() {
                                break;
                            }
                        }
                    }
                }
            })
            .map_err(|e| self.crashed(format!("cannot start reader thread: {e}")))?;
        let mut running = Running {
            child,
            stdin,
            lines: rx,
            version: String::new(),
        };
        let id = st.next_id;
        st.next_id += 1;
        let version = self
            .roundtrip(&mut running, id, &version_request(id))
            .and_then(|reply| {
                reply
                    .version
                    .ok_or_else(|| self.malformed("handshake reply carries no version"))
            });
        match version {
            Ok(v) => {
                // A different tool version invalidates the result cache:
                // the cache key is effectively (bytes, uarch, mode,
                // tool, tool-version).
                if st.version.as_deref().is_some_and(|prev| prev != v) {
                    self.cache.clear();
                }
                st.version = Some(v.clone());
                running.version = v;
                if st.running.is_some() || st.restarts > 0 || st.failures > 0 {
                    st.restarts += 1;
                }
                st.running = Some(running);
                Ok(())
            }
            Err(e) => {
                running.kill();
                Err(e)
            }
        }
    }

    /// Write one request line and read the matching reply, enforcing the
    /// per-request timeout and the id echo.
    fn roundtrip(&self, r: &mut Running, id: u64, request: &str) -> Result<Reply, PredictError> {
        writeln!(r.stdin, "{request}")
            .and_then(|()| r.stdin.flush())
            .map_err(|e| self.crashed(format!("stdin closed: {e}")))?;
        let line = match r.lines.recv_timeout(self.spec.timeout) {
            Ok(line) => line,
            Err(mpsc::RecvTimeoutError::Timeout) => return Err(self.timeout_error()),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = r
                    .child
                    .wait()
                    .map_or_else(|e| format!("wait failed: {e}"), |s| s.to_string());
                return Err(self.crashed(format!("stdout closed ({status})")));
            }
        };
        let reply = parse_reply(&line).map_err(|e| {
            let mut shown: String = line.chars().take(80).collect();
            if shown.len() < line.len() {
                shown.push('…');
            }
            self.malformed(format!("{e} in {shown:?}"))
        })?;
        if reply.id != Some(id) {
            return Err(self.malformed(format!(
                "reply id {:?} does not echo request id {id}",
                reply.id
            )));
        }
        Ok(reply)
    }
}

impl Drop for ExternalPredictor {
    fn drop(&mut self) {
        if let Some(r) = self.state.lock().running.take() {
            r.kill();
        }
    }
}

impl Predictor for ExternalPredictor {
    fn key(&self) -> &str {
        &self.key
    }

    fn name(&self) -> &str {
        &self.spec.name
    }

    fn predict(&self, req: &PredictRequest<'_>) -> Result<Prediction, PredictError> {
        let bytes = req.block().bytes();
        // Fault injection is decided before the cache so a chaos run
        // cannot be masked by earlier cached successes. The decisions
        // are content-keyed: the same block is faulted on every run and
        // thread interleaving, and the subprocess is left untouched so
        // non-faulted rows stay byte-identical to a fault-free run.
        if faults::decide(faults::Point::ExtTimeout, bytes) {
            return Err(self.timeout_error());
        }
        if faults::decide(faults::Point::ExtCrash, bytes) {
            return Err(self.crashed("injected fault at ext-crash"));
        }
        let cache_key = ExtKey(bytes.to_vec(), req.uarch(), req.mode());
        if let Some(tp) = self.cache.read(&cache_key, |&tp| tp) {
            return Ok(Prediction::plain(tp));
        }

        let mut st = self.state.lock();
        if st.breaker_open && st.cooldown_left > 0 {
            // Open: fail fast, counting down toward the half-open probe.
            st.cooldown_left -= 1;
            return Err(PredictError::ExternalCircuitOpen {
                tool: self.key.clone(),
                until_probe: st.cooldown_left,
            });
        }
        if st.running.is_none() {
            // The give-up check is superseded by the breaker: an open
            // breaker always probes again after its cooldown.
            if self.breaker().is_none() && st.failures > self.spec.max_restarts {
                return Err(self.crashed(format!(
                    "gave up after {} consecutive failures",
                    st.failures
                )));
            }
            if st.backoff > 0 {
                st.backoff -= 1;
                return Err(self.crashed(format!(
                    "in restart backoff ({} request(s) until respawn)",
                    st.backoff + 1
                )));
            }
            if let Err(e) = self.spawn(&mut st) {
                self.note_failure(&mut st);
                return Err(e);
            }
        }

        let id = st.next_id;
        st.next_id += 1;
        let request = predict_request(id, &req.block().to_hex(), req.uarch(), req.mode());
        let running = st.running.as_mut().expect("spawned above");
        let reply = match self.roundtrip(running, id, &request) {
            Ok(reply) => reply,
            Err(e) => {
                self.note_failure(&mut st);
                return Err(e);
            }
        };
        // Any well-formed, correctly-addressed reply means the tool is
        // healthy; the supervision counters reset even for tool-level
        // error replies, and a half-open probe closes the breaker.
        st.failures = 0;
        st.backoff = 0;
        st.breaker_open = false;
        st.consecutive_trips = 0;
        drop(st);

        if let Some(msg) = reply.error {
            return Err(PredictError::InvalidOutput {
                predictor: self.key.clone(),
                value: msg,
                mode: req.mode(),
            });
        }
        let tp = reply
            .throughput
            .ok_or_else(|| self.malformed("reply carries neither throughput nor error"))?;
        if !tp.is_finite() || tp < 0.0 {
            return Err(PredictError::InvalidOutput {
                predictor: self.key.clone(),
                value: format!("{tp}"),
                mode: req.mode(),
            });
        }
        self.cache.insert(cache_key, tp);
        Ok(Prediction::plain(tp))
    }
}

/// Extract `ext:<name>=<cmd>` tokens from a comma-separated predictor
/// selector. Returns the parsed specs and the rewritten selector, where
/// each definition token is replaced by its registry key `ext:<name>`
/// (bare `ext:<name>` references pass through untouched).
///
/// The command line is split on whitespace; it therefore cannot contain
/// commas or quoted arguments — wrap complex invocations in a script.
///
/// # Errors
/// A descriptive message for malformed `ext:` tokens.
pub fn extract_selector_externals(selector: &str) -> Result<(Vec<ExternalSpec>, String), String> {
    let mut specs = Vec::new();
    let mut tokens: Vec<String> = Vec::new();
    for token in selector.split(',') {
        let t = token.trim();
        if let Some(rest) = t.strip_prefix("ext:") {
            if let Some((name, cmd)) = rest.split_once('=') {
                let spec = ExternalSpec::parse(name.trim(), cmd)?;
                tokens.push(spec.key());
                specs.push(spec);
                continue;
            }
        }
        tokens.push(t.to_string());
    }
    Ok((specs, tokens.join(",")))
}

/// Register every `ext:<name>=<cmd>` token of `selector` in `registry`
/// and return the rewritten selector (definitions replaced by their
/// `ext:<name>` keys).
///
/// # Errors
/// A descriptive message for malformed `ext:` tokens.
pub fn register_selector_externals(
    registry: &mut PredictorRegistry,
    selector: &str,
) -> Result<String, String> {
    let (specs, rewritten) = extract_selector_externals(selector)?;
    for spec in specs {
        registry.register(Arc::new(ExternalPredictor::new(spec)));
    }
    Ok(rewritten)
}

/// Parse an external-predictor config file (a TOML subset).
///
/// Two forms are accepted — a shorthand assignment per tool, or a
/// section with tuning knobs:
///
/// ```toml
/// # shorthand: name = "command line"
/// mock = "target/debug/mock_predictor --mode echo-facile"
///
/// [external.slow-tool]
/// cmd = "scripts/run-slow-tool.sh"
/// timeout-ms = 30000
/// max-restarts = 5
/// ```
///
/// # Errors
/// A `line N: ...` message on the first malformed line.
pub fn parse_config(text: &str) -> Result<Vec<ExternalSpec>, String> {
    fn flush(
        specs: &mut Vec<ExternalSpec>,
        section: &mut Option<(String, Option<ExternalSpec>)>,
    ) -> Result<(), String> {
        if let Some((name, spec)) = section.take() {
            specs.push(spec.ok_or_else(|| format!("section [external.{name}] is missing cmd"))?);
        }
        Ok(())
    }
    let mut specs: Vec<ExternalSpec> = Vec::new();
    // The spec currently being filled by a [external.<name>] section.
    let mut section: Option<(String, Option<ExternalSpec>)> = None;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let at = |msg: String| format!("line {}: {msg}", n + 1);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[') {
            let header = header
                .strip_suffix(']')
                .ok_or_else(|| at("unterminated section header".to_string()))?;
            let name = header.strip_prefix("external.").ok_or_else(|| {
                at(format!(
                    "unknown section [{header}] (expected [external.<name>])"
                ))
            })?;
            flush(&mut specs, &mut section)?;
            if name.is_empty() {
                return Err(at("section has no tool name".to_string()));
            }
            section = Some((name.to_string(), None));
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| at(format!("{line:?} is not key = value")))?;
        let unquote = |v: &str| -> Result<String, String> {
            v.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .map(str::to_string)
                .ok_or_else(|| at(format!("value {v:?} must be a double-quoted string")))
        };
        match &mut section {
            None => {
                // Shorthand: name = "command line".
                specs.push(ExternalSpec::parse(key, &unquote(value)?).map_err(at)?);
            }
            Some((name, spec)) => match key {
                "cmd" => {
                    *spec = Some(ExternalSpec::parse(name, &unquote(value)?).map_err(at)?);
                }
                "timeout-ms" => {
                    let ms: u64 = value
                        .parse()
                        .map_err(|_| at(format!("bad timeout-ms {value:?}")))?;
                    let s = spec
                        .as_mut()
                        .ok_or_else(|| at("timeout-ms before cmd".to_string()))?;
                    s.timeout = Duration::from_millis(ms);
                }
                "max-restarts" => {
                    let m: u32 = value
                        .parse()
                        .map_err(|_| at(format!("bad max-restarts {value:?}")))?;
                    let s = spec
                        .as_mut()
                        .ok_or_else(|| at("max-restarts before cmd".to_string()))?;
                    s.max_restarts = m;
                }
                "breaker-threshold" => {
                    let t: u32 = value
                        .parse()
                        .map_err(|_| at(format!("bad breaker-threshold {value:?}")))?;
                    let s = spec
                        .as_mut()
                        .ok_or_else(|| at("breaker-threshold before cmd".to_string()))?;
                    s.breaker.get_or_insert_with(BreakerSpec::default).threshold = t;
                }
                "breaker-cooldown" => {
                    let c: u64 = value
                        .parse()
                        .map_err(|_| at(format!("bad breaker-cooldown {value:?}")))?;
                    let s = spec
                        .as_mut()
                        .ok_or_else(|| at("breaker-cooldown before cmd".to_string()))?;
                    s.breaker.get_or_insert_with(BreakerSpec::default).cooldown = c;
                }
                other => return Err(at(format!("unknown key {other:?}"))),
            },
        }
    }
    flush(&mut specs, &mut section)?;
    Ok(specs)
}

/// Read, parse, and register an external-predictor config file. Returns
/// the registered keys.
///
/// # Errors
/// A descriptive message when the file cannot be read or parsed.
pub fn load_config(registry: &mut PredictorRegistry, path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let specs = parse_config(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut keys = Vec::with_capacity(specs.len());
    for spec in specs {
        keys.push(spec.key());
        registry.register(Arc::new(ExternalPredictor::new(spec)));
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_lines_are_stable() {
        assert_eq!(version_request(0), "{\"id\":0,\"op\":\"version\"}");
        assert_eq!(
            predict_request(7, "4801c8", Uarch::Skl, Mode::Unrolled),
            "{\"id\":7,\"op\":\"predict\",\"block\":\"4801c8\",\"uarch\":\"SKL\",\"mode\":\"tpu\"}"
        );
        assert_eq!(
            predict_request(8, "ffe0", Uarch::Icl, Mode::Loop),
            "{\"id\":8,\"op\":\"predict\",\"block\":\"ffe0\",\"uarch\":\"ICL\",\"mode\":\"tpl\"}"
        );
    }

    #[test]
    fn replies_parse() {
        let r = parse_reply("{\"id\":3,\"throughput\":2.5}").unwrap();
        assert_eq!(r.id, Some(3));
        assert_eq!(r.throughput, Some(2.5));
        let r = parse_reply("{\"id\":4,\"error\":\"no \\\"such\\\" block\"}").unwrap();
        assert_eq!(r.error.as_deref(), Some("no \"such\" block"));
        let r = parse_reply(" { \"id\" : 0 , \"version\" : \"mock-1\" } ").unwrap();
        assert_eq!(r.version.as_deref(), Some("mock-1"));
        // Unknown fields and literals are tolerated; structure is not.
        assert!(parse_reply("{\"id\":1,\"ok\":true}").is_ok());
        for bad in [
            "",
            "garbage",
            "{\"id\":1",
            "{\"id\":1}trailing",
            "{\"nested\":{\"id\":1}}",
            "{\"list\":[1]}",
            "{\"id\":}",
        ] {
            assert!(parse_reply(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn reply_unicode_escapes_decode() {
        let r = parse_reply(r#"{"id":5,"error":"\u00b5op \ud83d\ude00 \u0001"}"#).unwrap();
        assert_eq!(r.error.as_deref(), Some("\u{b5}op \u{1F600} \u{1}"));
        let r = parse_reply(r#"{"id":0,"version":"t\u00e9st","version":"v2"}"#).unwrap();
        assert_eq!(
            r.version.as_deref(),
            Some("v2"),
            "a repeated key's last value wins"
        );
        assert!(parse_reply(r#"{"id":1,"error":"\ud800"}"#).is_err());
    }

    /// Bytes that make up reply lines, so arbitrary lines get deep into
    /// the parser, plus any byte at all.
    fn reply_byte(pick: u8, any: u8) -> u8 {
        const JSONISH: &[u8] = b"{}[]\":,\\ u0123456789abcdefABCDEF.-+eEtrnlsid\t\n";
        if pick < 200 {
            JSONISH[usize::from(pick) % JSONISH.len()]
        } else {
            any
        }
    }

    /// Text covering every escape `json_escape` writes: quotes,
    /// backslashes, control characters, and multi-byte characters.
    fn text(codes: &[u32]) -> String {
        const WIDE: [char; 5] = ['\u{b5}', '\u{20ac}', '\u{4e2d}', '\u{1F600}', '\u{10FFFF}'];
        codes
            .iter()
            .map(|&c| match c % 4 {
                0 => char::from_u32(c / 4 % 0x80).expect("ASCII"),
                1 => ['"', '\\', '/', '\n', '\r', '\t'][(c / 4) as usize % 6],
                2 => char::from_u32(c / 4 % 0x20).expect("ASCII control"),
                _ => WIDE[(c / 4) as usize % WIDE.len()],
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A subprocess can write any bytes: `parse_reply` answers every
        /// line, and every truncation of a valid reply, with `Ok` or
        /// `Err`, never a panic.
        #[test]
        fn parse_reply_never_panics(
            bytes in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..96),
            codes in proptest::collection::vec(any::<u32>(), 0..12),
            id in any::<u64>(),
        ) {
            let raw: Vec<u8> = bytes.iter().map(|&(p, b)| reply_byte(p, b)).collect();
            let _ = parse_reply(&String::from_utf8_lossy(&raw));
            let reply = format!(
                "{{\"id\":{id},\"throughput\":-1.5e3,\"error\":\"{}\",\"ok\":null}}",
                facile_explain::json_escape(&text(&codes))
            );
            for end in (0..=reply.len()).filter(|&i| reply.is_char_boundary(i)) {
                let _ = parse_reply(&reply[..end]);
            }
        }

        /// A tool's `error` and `version` strings, written through the
        /// workspace's JSON writer, read back unchanged.
        #[test]
        fn escaped_strings_round_trip(
            error in proptest::collection::vec(any::<u32>(), 0..24),
            version in proptest::collection::vec(any::<u32>(), 0..24),
        ) {
            let (error, version) = (text(&error), text(&version));
            let line = format!(
                "{{\"id\":9,\"error\":\"{}\",\"version\":\"{}\"}}",
                facile_explain::json_escape(&error),
                facile_explain::json_escape(&version)
            );
            let r = parse_reply(&line).expect("an escaped reply parses");
            prop_assert_eq!(r.id, Some(9));
            prop_assert_eq!(r.error, Some(error));
            prop_assert_eq!(r.version, Some(version));
        }
    }

    #[test]
    fn selector_extraction_rewrites_definitions() {
        let (specs, sel) =
            extract_selector_externals("facile*, ext:mock=/bin/mock --mode echo-facile, sim")
                .unwrap();
        assert_eq!(sel, "facile*,ext:mock,sim");
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0].name, "mock");
        assert_eq!(specs[0].cmd, ["/bin/mock", "--mode", "echo-facile"]);
        // Bare references pass through; non-ext tokens are untouched.
        let (specs, sel) = extract_selector_externals("ext:mock,facile").unwrap();
        assert!(specs.is_empty());
        assert_eq!(sel, "ext:mock,facile");
        // Malformed definitions are rejected.
        assert!(extract_selector_externals("ext:=x").is_err());
        assert!(extract_selector_externals("ext:a b=x").is_err());
        assert!(extract_selector_externals("ext:a=").is_err());
    }

    #[test]
    fn config_parses_shorthand_and_sections() {
        let text = "\
# tools
mock = \"/bin/mock --mode echo-facile\"

[external.slow]
cmd = \"/bin/slow --x\"
timeout-ms = 250
max-restarts = 7

[external.flaky]
cmd = \"/bin/flaky\"
breaker-threshold = 3
breaker-cooldown = 16
";
        let specs = parse_config(text).unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].name, "mock");
        assert_eq!(specs[0].timeout, DEFAULT_TIMEOUT);
        assert_eq!(specs[0].breaker, None);
        assert_eq!(specs[1].name, "slow");
        assert_eq!(specs[1].timeout, Duration::from_millis(250));
        assert_eq!(specs[1].max_restarts, 7);
        assert_eq!(specs[1].breaker, None);
        assert_eq!(
            specs[2].breaker,
            Some(BreakerSpec {
                threshold: 3,
                cooldown: 16
            })
        );
        for bad in [
            "[external.x]\n",                 // missing cmd
            "[oops]\ncmd = \"x\"\n",          // unknown section
            "mock = bare\n",                  // unquoted value
            "[external.x]\ntimeout-ms = 5\n", // knob before cmd
            "just a line\n",
        ] {
            assert!(parse_config(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn spec_keys_and_registration() {
        let spec = ExternalSpec::parse("mock", "/bin/true").unwrap();
        assert_eq!(spec.key(), "ext:mock");
        let mut reg = PredictorRegistry::new();
        let sel = register_selector_externals(&mut reg, "ext:mock=/bin/true").unwrap();
        assert_eq!(sel, "ext:mock");
        assert!(reg.get("ext:mock").is_some());
    }
}
