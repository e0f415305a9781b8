//! `facile client` — talk to a running `facile serve` daemon.
//!
//! The client is deliberately thin: it builds protocol request lines,
//! streams reply rows to stdout, and does **no row formatting of its
//! own** — JSON rows are echoed verbatim from the reply (byte-identical
//! to `facile --batch --format json` by construction), CSV rows are the
//! reply's carried strings under the same header line `facile --batch
//! --format csv` prints.

use facile_engine::render::csv_header;
use facile_server::json::{self, Kind, Value};
use facile_uarch::Uarch;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
facile client — send prediction requests to a facile serve daemon

USAGE:
    facile client --socket <PATH> --hex <BYTES> [OPTIONS]
    facile client --tcp <ADDR> --batch [FILE] [OPTIONS]
    facile client --socket <PATH> --op stats|ping|health

CONNECTION (exactly one):
    --socket <PATH>    connect to a Unix-domain socket
    --tcp <ADDR>       connect to a TCP address (host:port)

INPUT (exactly one):
    --hex <BYTES>      predict a single block
    --batch [FILE]     read blocks from FILE (default stdin), one per
                       line — bare hex or BHive CSV, exactly like
                       `facile --batch`
    --op <OP>          a one-off request: `stats` (print the server's
                       counters as JSON), `ping`, or `health` (the
                       degradation tier and pressure)

OPTIONS:
    --uarch <ABBR>     microarchitecture (default SKL)
    --all-uarchs       predict on all nine microarchitectures
    --mode <MODE>      auto | loop | unroll (default auto)
    --predictors <KEYS> predictor selector (server default when omitted)
    --format <FMT>     json | csv row output (default json)
    --explain          request full explanations (and the CSV
                       explanation column)
    --deadline-ms <N>  per-request queue deadline
    --chunk <N>        blocks per request in batch mode (default 1024)
    --retries <N>      resend a request up to N times after an
                       `overloaded` or `deadline-exceeded` rejection, a
                       refused connection, or a mid-stream disconnect
                       (default 0 = fail fast)
    --connect-timeout-ms <N>  give up on a TCP connect attempt after N
                       milliseconds (default 5000; 0 = the OS default,
                       blocking. Unix sockets connect without a timeout)
    --backoff-ms <N>   base delay between retries; attempt k waits
                       about N*2^k ms with deterministic jitter
                       (default 50)
    --help             show this help

Row output is byte-identical to `facile --batch` with the same flags:
rows come off the wire in the CLI's own rendering.
";

/// Where to connect (resolved to a live socket in [`drive`]).
enum ConnectTo {
    #[cfg(unix)]
    Unix(String),
    Tcp(String),
}

struct Options {
    connect: ConnectTo,
    hex: Option<String>,
    /// `Some(path)` = batch from a file, `Some(None)` = batch from stdin.
    batch: Option<Option<String>>,
    op: Option<String>,
    uarch: Uarch,
    all_uarchs: bool,
    mode: Option<&'static str>,
    predictors: Option<String>,
    csv: bool,
    explain: bool,
    deadline_ms: Option<u64>,
    chunk: usize,
    retries: u32,
    backoff_ms: u64,
    connect_timeout_ms: u64,
}

fn parse(args: Vec<String>) -> Result<Option<Options>, String> {
    let mut connect: Option<ConnectTo> = None;
    let mut hex = None;
    let mut batch: Option<Option<String>> = None;
    let mut op = None;
    let mut uarch = Uarch::Skl;
    let mut all_uarchs = false;
    let mut mode = None;
    let mut predictors = None;
    let mut csv = false;
    let mut explain = false;
    let mut deadline_ms = None;
    let mut chunk = 1024usize;
    let mut retries = 0u32;
    let mut backoff_ms = 50u64;
    let mut connect_timeout_ms = 5_000u64;
    let mut it = args.into_iter().peekable();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--socket" => {
                let path = it.next().ok_or("--socket requires a value")?;
                #[cfg(unix)]
                {
                    connect = Some(ConnectTo::Unix(path));
                }
                #[cfg(not(unix))]
                {
                    let _ = path;
                    return Err("--socket is only available on Unix".into());
                }
            }
            "--tcp" => connect = Some(ConnectTo::Tcp(it.next().ok_or("--tcp requires a value")?)),
            "--hex" => hex = Some(it.next().ok_or("--hex requires a value")?),
            "--batch" => {
                // An optional positional FILE follows unless the next
                // token is a flag; `-` means stdin.
                let file = if it.peek().is_some_and(|t| !t.starts_with("--")) {
                    it.next()
                } else {
                    None
                };
                batch = Some(file.filter(|f| f != "-"));
            }
            "--op" => op = Some(it.next().ok_or("--op requires a value")?),
            "--uarch" => {
                uarch = it
                    .next()
                    .ok_or("--uarch requires a value")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--all-uarchs" => all_uarchs = true,
            "--mode" => {
                mode = match it.next().ok_or("--mode requires a value")?.as_str() {
                    "auto" => None,
                    "loop" | "tpl" => Some("tpl"),
                    "unroll" | "tpu" => Some("tpu"),
                    other => return Err(format!("unknown mode: {other}")),
                };
            }
            "--predictors" => {
                predictors = Some(it.next().ok_or("--predictors requires a value")?);
            }
            "--format" => {
                csv = match it.next().ok_or("--format requires a value")?.as_str() {
                    "json" => false,
                    "csv" => true,
                    other => return Err(format!("unknown format: {other} (json|csv)")),
                };
            }
            "--explain" => explain = true,
            "--deadline-ms" => {
                deadline_ms = Some(
                    it.next()
                        .ok_or("--deadline-ms requires a value")?
                        .parse()
                        .map_err(|_| "numeric --deadline-ms".to_string())?,
                );
            }
            "--chunk" => {
                chunk = it
                    .next()
                    .ok_or("--chunk requires a value")?
                    .parse()
                    .map_err(|_| "numeric --chunk".to_string())?;
                if chunk == 0 {
                    return Err("--chunk must be at least 1".into());
                }
            }
            "--retries" => {
                retries = it
                    .next()
                    .ok_or("--retries requires a value")?
                    .parse()
                    .map_err(|_| "numeric --retries".to_string())?;
            }
            "--backoff-ms" => {
                backoff_ms = it
                    .next()
                    .ok_or("--backoff-ms requires a value")?
                    .parse()
                    .map_err(|_| "numeric --backoff-ms".to_string())?;
            }
            "--connect-timeout-ms" => {
                connect_timeout_ms = it
                    .next()
                    .ok_or("--connect-timeout-ms requires a value")?
                    .parse()
                    .map_err(|_| "numeric --connect-timeout-ms".to_string())?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let connect = connect.ok_or("provide --socket <PATH> or --tcp <ADDR>")?;
    let inputs =
        usize::from(hex.is_some()) + usize::from(batch.is_some()) + usize::from(op.is_some());
    if inputs != 1 {
        return Err("provide exactly one of --hex, --batch, or --op".into());
    }
    if let Some(op) = &op {
        if op != "stats" && op != "ping" && op != "health" {
            return Err(format!("unknown op: {op} (stats|ping|health)"));
        }
    }
    Ok(Some(Options {
        connect,
        hex,
        batch,
        op,
        uarch,
        all_uarchs,
        mode,
        predictors,
        csv,
        explain,
        deadline_ms,
        chunk,
        retries,
        backoff_ms,
        connect_timeout_ms,
    }))
}

/// A JSON string literal for a request field (blocks may carry
/// arbitrary bytes from malformed input lines; the server turns those
/// into error rows, not protocol errors).
fn jstr(s: &str) -> String {
    format!("\"{}\"", facile_explain::json_escape(s))
}

fn batch_request(o: &Options, blocks: &[String]) -> String {
    let mut req = String::with_capacity(64 + blocks.len() * 20);
    req.push_str("{\"op\":\"batch\",\"blocks\":[");
    for (i, b) in blocks.iter().enumerate() {
        if i > 0 {
            req.push(',');
        }
        req.push_str(&jstr(b));
    }
    req.push_str("],\"uarch\":");
    if o.all_uarchs {
        req.push_str("\"all\"");
    } else {
        req.push_str(&jstr(&o.uarch.to_string()));
    }
    if let Some(m) = o.mode {
        req.push_str(",\"mode\":\"");
        req.push_str(m);
        req.push('"');
    }
    if o.explain {
        req.push_str(",\"detail\":\"full\"");
    }
    if let Some(p) = &o.predictors {
        req.push_str(",\"predictors\":");
        req.push_str(&jstr(p));
    }
    if o.csv {
        req.push_str(",\"format\":\"csv\"");
    }
    if let Some(d) = o.deadline_ms {
        req.push_str(&format!(",\"deadline_ms\":{d}"));
    }
    req.push('}');
    req
}

/// Why the client gave up, split by exit code: an unreachable endpoint
/// exits 3 (scripts can tell "daemon not running" from "bad request"),
/// everything else exits 1.
enum ClientError {
    /// The endpoint could not be reached (after any retries).
    Connect {
        /// The socket path / TCP address as given.
        addr: String,
        /// The underlying io error.
        cause: String,
    },
    /// Any other failure (protocol, rejection, local io).
    Other(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect { addr, cause } => {
                write!(f, "cannot connect to {addr}: {cause}")
            }
            ClientError::Other(msg) => f.write_str(msg),
        }
    }
}

/// One attempt's verdict: retry-worthy failures are transient by nature
/// (the daemon restarting, a full queue, a dropped connection); fatal
/// ones would fail identically on every resend.
enum Attempt {
    Retry(ClientError),
    Fatal(ClientError),
}

/// A live connection to the daemon.
struct Conn {
    tx: Box<dyn Write>,
    rx: Box<dyn BufRead>,
}

fn connect(o: &Options) -> Result<Conn, ClientError> {
    match &o.connect {
        #[cfg(unix)]
        ConnectTo::Unix(path) => {
            let s = UnixStream::connect(path).map_err(|e| ClientError::Connect {
                addr: path.clone(),
                cause: e.to_string(),
            })?;
            let r = s
                .try_clone()
                .map_err(|e| ClientError::Other(e.to_string()))?;
            Ok(Conn {
                tx: Box::new(s),
                rx: Box::new(BufReader::new(r)),
            })
        }
        ConnectTo::Tcp(addr) => {
            let s =
                tcp_connect(addr, o.connect_timeout_ms).map_err(|cause| ClientError::Connect {
                    addr: addr.clone(),
                    cause,
                })?;
            let _ = s.set_nodelay(true); // request lines are small
            let r = s
                .try_clone()
                .map_err(|e| ClientError::Other(e.to_string()))?;
            Ok(Conn {
                tx: Box::new(s),
                rx: Box::new(BufReader::new(r)),
            })
        }
    }
}

/// TCP connect with a bounded wait: a daemon that is down fails fast
/// (connection refused), but a blackholed address (firewall drop, dead
/// host) would otherwise block for the OS default of minutes. Resolves
/// the address and tries each candidate under the same per-attempt
/// timeout; `0` keeps the plain blocking connect.
fn tcp_connect(addr: &str, timeout_ms: u64) -> Result<TcpStream, String> {
    use std::net::ToSocketAddrs;
    if timeout_ms == 0 {
        return TcpStream::connect(addr).map_err(|e| e.to_string());
    }
    let timeout = Duration::from_millis(timeout_ms);
    let candidates = addr.to_socket_addrs().map_err(|e| e.to_string())?;
    let mut last = format!("{addr} did not resolve to any address");
    for candidate in candidates {
        match TcpStream::connect_timeout(&candidate, timeout) {
            Ok(s) => return Ok(s),
            Err(e) => last = e.to_string(),
        }
    }
    Err(last)
}

/// Exponential backoff with deterministic jitter: attempt `k` waits
/// roughly `base * 2^k` ms, where the jittered half is hashed from
/// `(request seq, attempt)` — reproducible run-to-run, decorrelated
/// across requests (a thundering herd of identical clients still
/// spreads out, because each is on a different request sequence).
fn backoff(base_ms: u64, attempt: u32, seq: u64) -> Duration {
    let base = base_ms.saturating_mul(1 << attempt.min(10)).min(10_000);
    let mut key = [0u8; 12];
    key[..8].copy_from_slice(&seq.to_le_bytes());
    key[8..].copy_from_slice(&attempt.to_le_bytes());
    let jitter = facile_util::hash_bytes(&key) % (base / 2 + 1);
    Duration::from_millis(base - base / 2 + jitter)
}

/// The retrying request loop: at most one request is outstanding at a
/// time, and a resend carries the same `"id"` the original did, so a
/// retry can never double-answer (replies are matched to the one id in
/// flight) and only the unanswered request is ever resent.
struct Client<'a> {
    o: &'a Options,
    conn: Option<Conn>,
    /// Requests issued so far; names the next request id (`q<seq>`).
    seq: u64,
}

impl<'a> Client<'a> {
    fn new(o: &'a Options) -> Client<'a> {
        Client {
            o,
            conn: None,
            seq: 0,
        }
    }

    /// Send `body` (a request object without an id) and return the
    /// verified reply, retrying per the options. With retries enabled,
    /// requests are tagged `"id":"q<n>"` and the echoed id is checked.
    fn call(&mut self, body: &str) -> Result<(String, Value), ClientError> {
        self.seq += 1;
        let id = (self.o.retries > 0).then(|| format!("q{}", self.seq));
        // The request line with its newline, so it goes out in one write
        // (with `TCP_NODELAY`, two writes would be two segments).
        let req = match &id {
            // Every request body is a JSON object; splice the id in
            // before the closing brace.
            Some(i) => format!("{},\"id\":\"{i}\"}}\n", &body[..body.len() - 1]),
            None => format!("{body}\n"),
        };
        let mut attempt = 0u32;
        loop {
            match self.try_once(&req, id.as_deref()) {
                Ok(ok) => return Ok(ok),
                Err(Attempt::Fatal(e)) => return Err(e),
                Err(Attempt::Retry(e)) => {
                    if attempt >= self.o.retries {
                        return Err(e);
                    }
                    let delay = backoff(self.o.backoff_ms, attempt, self.seq);
                    eprintln!("facile-client: {e}; retrying in {}ms", delay.as_millis());
                    std::thread::sleep(delay);
                    attempt += 1;
                }
            }
        }
    }

    fn try_once(&mut self, req: &str, id: Option<&str>) -> Result<(String, Value), Attempt> {
        if self.conn.is_none() {
            self.conn = Some(connect(self.o).map_err(Attempt::Retry)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let exchanged = (|| -> Result<String, String> {
            conn.tx
                .write_all(req.as_bytes())
                .map_err(|e| e.to_string())?;
            conn.tx.flush().map_err(|e| e.to_string())?;
            let mut reply = String::new();
            let n = conn.rx.read_line(&mut reply).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
            Ok(reply)
        })();
        let reply = match exchanged {
            Ok(reply) => reply,
            Err(cause) => {
                // Mid-stream disconnect: this connection is dead (or
                // desynced); a retry starts from a fresh one.
                self.conn = None;
                return Err(Attempt::Retry(ClientError::Other(format!(
                    "connection lost mid-request: {cause}"
                ))));
            }
        };
        let v = json::parse(&reply)
            .map_err(|e| Attempt::Fatal(ClientError::Other(format!("unparseable reply: {e}"))))?;
        match v.get("ok").map(|k| &k.kind) {
            Some(Kind::Bool(true)) => {
                if id.is_some() && v.get("id").and_then(Value::as_str) != id {
                    // One request is in flight, so its id is the only
                    // one a reply may carry; anything else means the
                    // stream is not speaking our protocol.
                    return Err(Attempt::Fatal(ClientError::Other(format!(
                        "reply id does not match the request in flight: {reply}"
                    ))));
                }
                Ok((reply, v))
            }
            _ => {
                let code = v.get("code").and_then(Value::as_str).unwrap_or("unknown");
                let msg = v
                    .get("error")
                    .and_then(Value::as_str)
                    .map_or_else(|| reply.clone(), str::to_string);
                let err =
                    ClientError::Other(format!("server rejected the request ({code}): {msg}"));
                if code == "overloaded" || code == "deadline-exceeded" {
                    // Admission pressure and queue-deadline expiry are
                    // transient; back off and resend (the request was
                    // rejected or dropped, never executed).
                    Err(Attempt::Retry(err))
                } else {
                    Err(Attempt::Fatal(err))
                }
            }
        }
    }
}

/// Print a prediction reply's rows: JSON rows verbatim off the wire,
/// CSV rows as the carried strings.
fn print_rows(reply: &str, v: &Value, csv: bool, out: &mut dyn Write) -> Result<(), String> {
    let rows = v
        .get("rows")
        .and_then(Value::as_arr)
        .ok_or("reply has no rows")?;
    for r in rows {
        if csv {
            let s = r.as_str().ok_or("CSV reply row is not a string")?;
            writeln!(out, "{s}").map_err(|e| e.to_string())?;
        } else {
            writeln!(out, "{}", r.raw(reply)).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

fn drive(o: &Options) -> Result<(), ClientError> {
    let mut client = Client::new(o);
    let local = |e: String| ClientError::Other(e);
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());

    if let Some(op) = &o.op {
        let (reply, v) = client.call(&format!("{{\"op\":{}}}", jstr(op)))?;
        // stats: print the payload object alone; ping/health: the
        // whole reply.
        let payload = v.get("stats").map_or(reply.as_str(), |s| s.raw(&reply));
        writeln!(&mut out, "{payload}").map_err(|e| local(e.to_string()))?;
        return out.flush().map_err(|e| local(e.to_string()));
    }

    if o.csv {
        writeln!(&mut out, "{}", csv_header(o.explain)).map_err(|e| local(e.to_string()))?;
    }
    if let Some(hex) = &o.hex {
        let (reply, v) = client.call(&batch_request(o, std::slice::from_ref(hex)))?;
        print_rows(&reply, &v, o.csv, &mut out).map_err(local)?;
        return out.flush().map_err(|e| local(e.to_string()));
    }

    // Batch mode: stream input lines in chunks, one request per chunk.
    // Rows arrive in request order, so output order matches the input
    // (and `facile --batch`) regardless of chunk size.
    let input: Box<dyn BufRead> = match o.batch.as_ref().expect("batch mode") {
        Some(path) => {
            Box::new(BufReader::new(std::fs::File::open(path).map_err(|e| {
                ClientError::Other(format!("cannot open {path}: {e}"))
            })?))
        }
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    let mut blocks: Vec<String> = Vec::with_capacity(o.chunk);
    for line in input.lines() {
        let line = line.map_err(|e| local(e.to_string()))?;
        let Some(hex) = facile_bhive::csv::hex_field(&line) else {
            continue;
        };
        blocks.push(hex.to_string());
        if blocks.len() >= o.chunk {
            let (reply, v) = client.call(&batch_request(o, &blocks))?;
            print_rows(&reply, &v, o.csv, &mut out).map_err(local)?;
            blocks.clear();
        }
    }
    if !blocks.is_empty() {
        let (reply, v) = client.call(&batch_request(o, &blocks))?;
        print_rows(&reply, &v, o.csv, &mut out).map_err(local)?;
    }
    out.flush().map_err(|e| local(e.to_string()))
}

pub fn main(args: Vec<String>) -> ExitCode {
    let o = match parse(args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match drive(&o) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e @ ClientError::Connect { .. }) => {
            // Exit 3: the daemon is unreachable — distinct from exit 1
            // (bad request / server-side failure) so wrappers can decide
            // whether starting a daemon would help.
            eprintln!("error: {e}");
            ExitCode::from(3)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
