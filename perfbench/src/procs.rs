//! Building and driving the `facile` binary: process spawning, the
//! `/proc` resource probes, and a `facile serve` handle.

use facile_server::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux configuration the kernel exports to user space).
const TICKS_PER_S: f64 = 100.0;

/// Cargo's target directory for this checkout: `CARGO_TARGET_DIR` when
/// set (relative to the working directory), else `target`.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where a run keeps its input files, outputs and trace.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = target_dir().join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Build the release `facile` binary from the checkout's sources and
/// return its path.
pub fn build_facile() -> Result<PathBuf, String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "facile-cli",
            "--bin",
            "facile",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building facile failed: {status}"));
    }
    let bin = target_dir().join("release").join("facile");
    if !bin.is_file() {
        return Err(format!("{} was not built", bin.display()));
    }
    Ok(bin)
}

/// One `/proc/<pid>/stat` reading: state letter and user + system CPU.
struct Stat {
    state: char,
    cpu_ticks: u64,
}

fn read_stat(pid: u32) -> Option<Stat> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces:
    // field 3 (state) is index 0, fields 14-15 (utime, stime) are 11-12.
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    Some(Stat {
        state: f.first()?.chars().next()?,
        cpu_ticks: f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?,
    })
}

/// `VmHWM` (peak resident set) of a live process, in KiB.
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// User + system CPU of a live process, in milliseconds.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    read_stat(pid).map(|s| ticks_ms(s.cpu_ticks))
}

/// CPU time the hypervisor ran other guests while this machine's CPUs
/// were ready to run (`steal` in `/proc/stat`), in milliseconds since
/// boot; 0 where the kernel does not report it.
pub fn host_steal_ms() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| t.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .map_or(0.0, ticks_ms)
}

fn ticks_ms(ticks: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        ticks as f64 * 1000.0 / TICKS_PER_S
    }
}

/// What one process run cost, read from `/proc` while it ran.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// User + system CPU over the process's life, in milliseconds.
    pub cpu_ms: f64,
    /// The largest `VmHWM` seen, in KiB.
    pub peak_rss_kb: u64,
}

/// How often the peak-RSS sampler reads `/proc/<pid>/status`.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(5);

/// Spawn `cmd`, wait for it to exit, and return its probe and status.
/// The exit shows as end of file on the child's stderr pipe, which the
/// harness blocks on (forwarding any diagnostics), so timing costs no
/// polling. The final CPU times are read from the zombie before it is
/// reaped. `VmHWM` is gone by then, so a thread samples it meanwhile.
pub fn run_probed(cmd: &mut Command) -> Result<(Probe, ExitStatus), String> {
    let t0 = Instant::now();
    let mut child = cmd
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot spawn facile: {e}"))?;
    let pid = child.id();
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let exited = AtomicBool::new(false);
    let (wall, peak_rss_kb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !exited.load(Ordering::Relaxed) {
                if let Some(kb) = peak_rss_kb(pid) {
                    peak = u64::max(peak, kb);
                }
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            peak
        });
        let _ = std::io::copy(&mut stderr, &mut std::io::stderr());
        let wall = t0.elapsed();
        exited.store(true, Ordering::Relaxed);
        (wall, sampler.join().expect("sampler thread panicked"))
    });
    // The process turns zombie just after its descriptors close.
    let cpu_ms = loop {
        match read_stat(pid) {
            Some(s) if s.state != 'Z' => std::thread::sleep(Duration::from_micros(50)),
            last => break last.map_or(0.0, |s| ticks_ms(s.cpu_ticks)),
        }
    };
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for facile: {e}"))?;
    Ok((
        Probe {
            wall,
            cpu_ms,
            peak_rss_kb,
        },
        status,
    ))
}

/// Wall time from spawn to exit of a process that reads nothing: the
/// CLI's set-up cost.
pub fn time_to_exit(cmd: &mut Command) -> Result<Duration, String> {
    let t0 = Instant::now();
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot spawn facile: {e}"))?;
    let wall = t0.elapsed();
    if !status.success() {
        return Err(format!("facile exited with {status} on empty input"));
    }
    Ok(wall)
}

/// A running `facile serve` on an ephemeral localhost TCP port, with
/// default settings. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// The bound address, from the ready line.
    pub addr: String,
    /// Spawn to ready line.
    pub setup: Duration,
}

impl Server {
    pub fn start(bin: &Path) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn facile serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup = t0.elapsed();
        let addr = read
            .ok()
            .and_then(|_| json::parse(line.trim()).ok())
            .and_then(|v| v.get("serving").and_then(Value::as_str).map(str::to_string));
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("facile serve did not report readiness: {line:?}"));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
            setup,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's `stats` reply, parsed.
    pub fn stats(&self) -> Result<ServerStats, String> {
        let mut conn = Conn::open(&self.addr)?;
        let reply = conn.round_trip("{\"op\":\"stats\"}")?;
        let v = json::parse(&reply).map_err(|e| format!("bad stats reply: {e}"))?;
        let num = |path: &[&str]| -> f64 {
            let mut cur = Some(&v);
            for key in path {
                cur = cur.and_then(|c| c.get(key));
            }
            cur.and_then(Value::as_f64).unwrap_or(0.0)
        };
        Ok(ServerStats {
            batches: num(&["stats", "server", "batches"]),
            batched_items: num(&["stats", "server", "batched_items"]),
            planned: num(&["stats", "engine", "planner", "items"]),
            deduped: num(&["stats", "engine", "planner", "deduped"]),
            annotate_hits: num(&["stats", "engine", "block_cache", "annotate_hits"]),
            annotate_misses: num(&["stats", "engine", "block_cache", "annotate_misses"]),
        })
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Counters from the `stats` op.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    pub batches: f64,
    pub batched_items: f64,
    pub planned: f64,
    pub deduped: f64,
    pub annotate_hits: f64,
    pub annotate_misses: f64,
}

impl ServerStats {
    /// Counter growth from `self` to `later`.
    pub fn delta(&self, later: &ServerStats) -> ServerStats {
        ServerStats {
            batches: later.batches - self.batches,
            batched_items: later.batched_items - self.batched_items,
            planned: later.planned - self.planned,
            deduped: later.deduped - self.deduped,
            annotate_hits: later.annotate_hits - self.annotate_hits,
            annotate_misses: later.annotate_misses - self.annotate_misses,
        }
    }
}

/// One closed-loop protocol connection.
pub struct Conn {
    tx: TcpStream,
    rx: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let tx = TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        tx.set_nodelay(true).map_err(|e| e.to_string())?;
        let rx = BufReader::new(tx.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { tx, rx })
    }

    /// Send one request line and read its reply line (without newline).
    pub fn round_trip(&mut self, req: &str) -> Result<String, String> {
        self.tx
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| format!("request write failed: {e}"))?;
        let mut line = String::new();
        let n = self
            .rx
            .read_line(&mut line)
            .map_err(|e| format!("reply read failed: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}
