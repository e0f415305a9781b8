//! The four workloads and their end-to-end measurement through the
//! release `facile` binary, with tracing off.

use crate::awake::KeepAwake;
use crate::inputs::{failed_requests, failed_rows, rows_reply, Inputs, RowSpec};
use crate::openloop;
use crate::procs::{self, Conn, Server};
use crate::stats::{median, percentile};
use facile_engine::Detail;
use facile_uarch::Uarch;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Blocks per `facile client --batch` request (the client's default).
pub const CLIENT_CHUNK: usize = 1024;
/// `serve_predict`'s offered load, requests per second.
pub const PREDICT_RATE: f64 = 1000.0;
/// `serve_predict`'s connections (and generator threads).
pub const PREDICT_CONNECTIONS: usize = 2;
/// CLI set-up probes per run (spawn to exit on empty stdin).
const CLI_SETUPS: usize = 41;
/// Server set-up probes per run, besides the measured server.
const SERVE_SETUPS: usize = 20;
/// Fewest timed calls a CLI or stream run makes, however short `--seconds`.
const MIN_CALLS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CliBatch,
    CliExplain,
    ServeStream,
    ServePredict,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CliBatch,
        Workload::CliExplain,
        Workload::ServeStream,
        Workload::ServePredict,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliBatch => "cli_batch",
            Workload::CliExplain => "cli_explain",
            Workload::ServeStream => "serve_stream",
            Workload::ServePredict => "serve_predict",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The rows this workload asks `facile` for.
    pub fn spec(self) -> RowSpec {
        match self {
            Workload::CliBatch => RowSpec {
                uarchs: Uarch::ALL.to_vec(),
                detail: Detail::Brief,
                csv: true,
            },
            Workload::CliExplain => RowSpec {
                uarchs: vec![Uarch::Skl],
                detail: Detail::Full,
                csv: false,
            },
            Workload::ServeStream | Workload::ServePredict => RowSpec {
                uarchs: vec![Uarch::Skl],
                detail: Detail::Brief,
                csv: false,
            },
        }
    }

    /// Distinct input blocks: one CLI batch, one client pass, or the
    /// `predict` working set.
    pub fn blocks(self) -> usize {
        match self {
            Workload::CliBatch => 6_000,
            Workload::CliExplain => 10_000,
            Workload::ServeStream => 2_048,
            Workload::ServePredict => 512,
        }
    }

    /// The `facile` arguments of one CLI batch call.
    pub fn cli_args(self) -> &'static [&'static str] {
        match self {
            Workload::CliBatch => &["--batch", "--all-uarchs", "--format", "csv"],
            Workload::CliExplain => &["--batch", "--explain", "--format", "json"],
            Workload::ServeStream | Workload::ServePredict => &["--batch", "--format", "json"],
        }
    }
}

/// A metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of one run.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Details printed before the result line (sample counts, aliases).
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Items per second over calls that each handled `per_call` items: all
/// items over all wall time, which a host that alternates between fast
/// and slow phases moves less than a median of per-call rates.
#[allow(clippy::cast_precision_loss)]
fn rate(per_call: usize, walls: &[Duration]) -> f64 {
    (per_call * walls.len()) as f64 / secs(walls.iter().sum())
}

#[allow(clippy::cast_precision_loss)]
fn per_kblock(cpu_ms: f64, blocks: usize) -> f64 {
    cpu_ms / (blocks as f64 / 1000.0)
}

/// How much CPU time the host took away during a timed phase that began
/// at `start` with the steal counter at `steal0`: runs with a lot of it
/// are the noisy ones.
fn steal_note(start: Instant, steal0: f64) -> String {
    format!(
        "host steal {:.0} ms over the {:.1} s timed phase",
        procs::host_steal_ms() - steal0,
        secs(start.elapsed())
    )
}

/// Write the workload's input lines, for `facile` to read from a file.
/// Each run overwrites its workload's file, so repeated runs do not fill
/// the disk.
pub fn write_input(dir: &Path, w: Workload, inputs: &Inputs) -> Result<PathBuf, String> {
    let path = dir.join(format!("input-{}.txt", w.name()));
    std::fs::write(&path, inputs.to_lines()).map_err(|e| format!("cannot write input: {e}"))?;
    Ok(path)
}

/// Spawn-to-ready times of `n` fresh servers, each killed once ready.
fn serve_setups(bin: &Path, n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| Server::start(bin).map(|s| secs(s.setup)))
        .collect()
}

/// One timed process call (CLI batch or client stream) with its output
/// redirected to `out` and stdin from `input` (if any).
fn timed_call(
    cmd: &mut Command,
    input: Option<&Path>,
    out: &Path,
) -> Result<(procs::Probe, String), String> {
    let stdin = match input {
        Some(p) => Stdio::from(File::open(p).map_err(|e| e.to_string())?),
        None => Stdio::null(),
    };
    let stdout = File::create(out).map_err(|e| e.to_string())?;
    let (probe, status) = procs::run_probed(cmd.stdin(stdin).stdout(stdout))?;
    if !status.success() {
        return Err(format!("facile exited with {status}"));
    }
    let text = std::fs::read_to_string(out).map_err(|e| e.to_string())?;
    Ok((probe, text))
}

/// `cli_batch` / `cli_explain`: repeated `facile --batch` calls on the
/// same distinct blocks, each a fresh process with a cold cache.
pub fn run_cli(
    bin: &Path,
    w: Workload,
    dir: &Path,
    input: &Path,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Report, String> {
    let setups = (0..CLI_SETUPS)
        .map(|_| procs::time_to_exit(Command::new(bin).args(w.cli_args())).map(secs))
        .collect::<Result<Vec<f64>, String>>()?;
    let out = dir.join(format!("output-{}.txt", w.name()));
    let spec = w.spec();
    let header = spec
        .csv
        .then(|| facile_engine::render::csv_header(spec.explain()));
    let (mut walls, mut cpu_ms, mut peaks) = (Vec::new(), 0.0, Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (start, steal0) = (Instant::now(), procs::host_steal_ms());
    while walls.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let (probe, text) = timed_call(Command::new(bin).args(w.cli_args()), Some(input), &out)?;
        let rows = match &header {
            Some(h) => match text.split_once('\n') {
                Some((first, rest)) if first == h => rest,
                _ => "",
            },
            None => text.as_str(),
        };
        attempted += inputs.rows.len() as u64;
        failed += failed_rows(&inputs.rows, rows) as u64;
        walls.push(probe.wall);
        cpu_ms += probe.cpu_ms;
        #[allow(clippy::cast_precision_loss)]
        peaks.push(probe.peak_rss_kb as f64 / 1024.0);
    }
    let lat: Vec<f64> = walls.iter().map(|w| us(*w)).collect();
    #[allow(clippy::cast_precision_loss)]
    Ok(Report {
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("rows_per_s", rate(inputs.rows.len(), &walls), "1/s"),
            ("latency_p50_us", percentile(&lat, 0.50), "us"),
            ("peak_rss_mb", median(&peaks), "MB"),
            (
                "cpu_ms_per_kblock",
                per_kblock(cpu_ms, walls.len() * inputs.hex.len()),
                "ms",
            ),
        ],
        notes: vec![
            steal_note(start, steal0),
            format!(
                "{} calls of {} blocks ({} rows); latency = one call, spawn to exit: \
             p90 {:.1} us (not gated); setup over {CLI_SETUPS} empty-stdin calls",
                walls.len(),
                inputs.hex.len(),
                inputs.rows.len(),
                percentile(&lat, 0.90)
            ),
        ],
        attempted,
        failed,
    })
}

/// `serve_stream`: `facile client --batch FILE` passes against a warm
/// `facile serve`.
pub fn run_stream(
    bin: &Path,
    dir: &Path,
    input: &Path,
    inputs: &Inputs,
    seconds: f64,
) -> Result<Report, String> {
    let w = Workload::ServeStream;
    let mut setups = serve_setups(bin, SERVE_SETUPS)?;
    let out = dir.join(format!("output-{}.txt", w.name()));

    // The CLI's rows for the same blocks: served rows must match them
    // byte for byte (and both must match the reference).
    let (_, cli_text) = timed_call(Command::new(bin).args(w.cli_args()), Some(input), &out)?;
    let cli_rows: Vec<String> = cli_text.lines().map(str::to_string).collect();

    let server = Server::start(bin)?;
    setups.push(secs(server.setup));
    let client = |cmd: &mut Command| {
        cmd.args(["client", "--tcp", &server.addr, "--batch"])
            .arg(input)
            .args(["--format", "json"]);
    };
    let mut warm = Command::new(bin);
    client(&mut warm);
    timed_call(&mut warm, None, &out)?;

    let requests = inputs.hex.len().div_ceil(CLIENT_CHUNK);
    let rows_per_request = CLIENT_CHUNK * inputs.rows_per_block;
    let (mut walls, mut cpu_ms) = (Vec::new(), 0.0);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let server_cpu0 = procs::cpu_ms(server.pid()).unwrap_or(0.0);
    let (start, steal0) = (Instant::now(), procs::host_steal_ms());
    while walls.len() < MIN_CALLS || start.elapsed().as_secs_f64() < seconds {
        let mut cmd = Command::new(bin);
        client(&mut cmd);
        let (probe, text) = timed_call(&mut cmd, None, &out)?;
        attempted += requests as u64;
        let bad = failed_requests(&inputs.rows, &text, rows_per_request).max(failed_requests(
            &cli_rows,
            &text,
            rows_per_request,
        ));
        failed += bad as u64;
        walls.push(probe.wall);
        cpu_ms += probe.cpu_ms;
    }
    let server_cpu = procs::cpu_ms(server.pid()).unwrap_or(0.0) - server_cpu0;
    let peak_kb = procs::peak_rss_kb(server.pid()).unwrap_or(0);
    drop(server);

    let lat: Vec<f64> = walls.iter().map(|w| us(*w)).collect();
    #[allow(clippy::cast_precision_loss)]
    Ok(Report {
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("rows_per_s", rate(inputs.hex.len(), &walls), "1/s"),
            ("latency_p50_us", percentile(&lat, 0.50), "us"),
            ("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
            (
                "cpu_ms_per_kblock",
                per_kblock(cpu_ms + server_cpu, walls.len() * inputs.hex.len()),
                "ms",
            ),
        ],
        notes: vec![
            steal_note(start, steal0),
            format!(
                "blocks_per_s {:.1} 1/s (= rows_per_s: one SKL row per block)",
                rate(inputs.hex.len(), &walls)
            ),
            format!(
                "{} timed client passes of {} blocks in {requests} requests after one warm-up \
                 pass; latency = one client pass, spawn to exit: p90 {:.1} us (not gated); \
                 setup over {} servers",
                walls.len(),
                inputs.hex.len(),
                percentile(&lat, 0.90),
                setups.len()
            ),
        ],
        attempted,
        failed,
    })
}

/// `predict` requests for the working set, drawn by a seeded RNG, with
/// the reply each must get.
pub fn predict_schedule(inputs: &Inputs, seed: u64, n: usize) -> Vec<openloop::Request> {
    // Salted so the picks do not replay the block stream's own draws.
    let mut rng = facile_bhive::rng::StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let picks: Vec<usize> = (0..n).map(|_| rng.gen_range(0..inputs.hex.len())).collect();
    openloop::schedule(n, PREDICT_RATE, |i| {
        let b = picks[i];
        (
            format!("{{\"op\":\"predict\",\"block\":\"{}\"}}", inputs.hex[b]),
            rows_reply(inputs.block_rows(b), false),
        )
    })
}

/// The `batch` request lines for the first `n` blocks, `chunk` blocks
/// each, paired with the reply each must get.
pub fn batch_requests(
    inputs: &Inputs,
    n: usize,
    spec: &RowSpec,
    chunk: usize,
) -> Vec<(String, String)> {
    inputs.hex[..n]
        .chunks(chunk)
        .enumerate()
        .map(|(k, blocks)| {
            let first = k * chunk * inputs.rows_per_block;
            let rows = &inputs.rows[first..first + blocks.len() * inputs.rows_per_block];
            (batch_request(blocks, spec), rows_reply(rows, spec.csv))
        })
        .collect()
}

/// Send each request once, closed loop, checking every reply: fills the
/// server's cache with the requests' blocks.
pub fn warm_server(server: &Server, requests: &[(String, String)]) -> Result<(), String> {
    let mut conn = Conn::open(&server.addr)?;
    for (line, expected) in requests {
        if conn.round_trip(line)? != *expected {
            return Err("warm-up reply differs from the reference rows".into());
        }
    }
    Ok(())
}

/// The `batch` request `facile client --batch` sends for `blocks` with
/// the flags matching `spec`.
pub fn batch_request(blocks: &[String], spec: &RowSpec) -> String {
    let mut req = String::from("{\"op\":\"batch\",\"blocks\":[");
    for (i, b) in blocks.iter().enumerate() {
        if i > 0 {
            req.push(',');
        }
        req.push('"');
        req.push_str(b);
        req.push('"');
    }
    req.push_str("],\"uarch\":");
    if spec.uarchs.len() == Uarch::ALL.len() {
        req.push_str("\"all\"");
    } else {
        req.push_str(&format!("\"{}\"", spec.uarchs[0]));
    }
    if spec.explain() {
        req.push_str(",\"detail\":\"full\"");
    }
    if spec.csv {
        req.push_str(",\"format\":\"csv\"");
    }
    req.push('}');
    req
}

/// `serve_predict`: an open-loop generator at a fixed rate against a
/// warm `facile serve`.
pub fn run_predict(bin: &Path, inputs: &Inputs, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = serve_setups(bin, SERVE_SETUPS)?;
    let server = Server::start(bin)?;
    setups.push(secs(server.setup));
    let spec = Workload::ServePredict.spec();
    warm_server(
        &server,
        &batch_requests(inputs, inputs.hex.len(), &spec, CLIENT_CHUNK),
    )?;

    // Half the run on each of two schedules at the same rate: the server's
    // CPU over the first with the CPUs left to idle, the latency over the
    // second with them kept awake (see `awake`). The spinning threads change
    // the kernel's path on every wake-up, and with them the server's CPU per
    // request swung 60-94 ms/kblock between runs.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = (seconds * PREDICT_RATE / 2.0).round().max(100.0) as usize;
    // One untimed second at the same rate first, so connection threads,
    // buffers and caches are warm when timing starts.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let warm_up = predict_schedule(inputs, seed.wrapping_add(1), PREDICT_RATE as usize);
    openloop::run(&server.addr, &warm_up, PREDICT_CONNECTIONS, false)?;
    let cpu_schedule = predict_schedule(inputs, seed.wrapping_add(3), n);
    let server_cpu0 = procs::cpu_ms(server.pid()).unwrap_or(0.0);
    let (_, cpu_outcomes) =
        openloop::run(&server.addr, &cpu_schedule, PREDICT_CONNECTIONS, false)?;
    let server_cpu = procs::cpu_ms(server.pid()).unwrap_or(0.0) - server_cpu0;

    let schedule = predict_schedule(inputs, seed, n);
    let awake = KeepAwake::start();
    let (start, steal0) = (Instant::now(), procs::host_steal_ms());
    let (_, outcomes) = openloop::run(&server.addr, &schedule, PREDICT_CONNECTIONS, false)?;
    let steal = steal_note(start, steal0);
    drop(awake);
    let peak_kb = procs::peak_rss_kb(server.pid()).unwrap_or(0);
    drop(server);

    let end = outcomes
        .iter()
        .filter_map(|o| o.received)
        .max()
        .unwrap_or_default();
    // A missing reply counts as arriving at the end of the run, so it
    // misses every latency limit the run could show.
    let lat: Vec<f64> = outcomes
        .iter()
        .map(|o| us(o.received.unwrap_or(end).saturating_sub(o.due)))
        .collect();
    let late: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| o.sent.map(|s| us(s.saturating_sub(o.due))))
        .collect();
    let answered = outcomes.iter().filter(|o| o.received.is_some()).count();
    let failed = outcomes.iter().chain(&cpu_outcomes).filter(|o| !o.ok).count();
    #[allow(clippy::cast_precision_loss)]
    Ok(Report {
        metrics: vec![
            ("setup_s", median(&setups), "s"),
            ("rows_per_s", answered as f64 / secs(end), "1/s"),
            ("latency_p50_us", percentile(&lat, 0.50), "us"),
            ("peak_rss_mb", peak_kb as f64 / 1024.0, "MB"),
            ("cpu_ms_per_kblock", per_kblock(server_cpu, n), "ms"),
        ],
        notes: vec![
            steal,
            format!(
                "predict_p50_us {:.1} us, predict_p90_us {:.1} us, predict_p99_us {:.1} us over \
                 {n} requests (open loop, {PREDICT_RATE} req/s, {PREDICT_CONNECTIONS} connections, \
                 {} working-set blocks); latency from each request's due time; the tail \
                 percentiles are not gated (host steal makes them swing several-fold); \
                 server CPU over another {n} requests before them, with idle CPUs",
                percentile(&lat, 0.50),
                percentile(&lat, 0.90),
                percentile(&lat, 0.99),
                inputs.hex.len()
            ),
            format!(
                "generator lateness p50 {:.1} us, p99 {:.1} us, max {:.1} us",
                percentile(&late, 0.50),
                percentile(&late, 0.99),
                late.iter().copied().fold(0.0, f64::max)
            ),
            format!("setup over {} servers", setups.len()),
        ],
        attempted: 2 * n as u64,
        failed: failed as u64,
    })
}
