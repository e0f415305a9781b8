//! Serving benchmark for `facile-server`: round-trip latency and
//! served throughput through a live in-process daemon. Writes
//! `BENCH_server.json`.
//!
//! Main sections:
//!
//! * **round_trip** — single-block requests over TCP against the
//!   default server configuration, for 1 client and for 8 concurrent
//!   clients: p50/p99 round-trip latency and served blocks/second, from
//!   the pass with the lowest p50 of 5.
//!   With one client every request finds the queue idle, so its own
//!   connection thread runs the engine batch at once; with eight,
//!   requests that arrive while a round runs share the next round's
//!   batch, so aggregate throughput scales. CI gates the one-client
//!   p50 (a ceiling) with `bench_check` against the committed file.
//! * **batch_stream** — the whole suite streamed as `batch` requests of
//!   up to 1024 blocks through one connection (how `facile client
//!   --batch` drives the daemon): served blocks/second end to end, from
//!   writing the first request to reading the last reply line, best of
//!   5 passes. CI gates this number with `bench_check` against the
//!   committed file.
//! * **availability** — the batch stream under 1% injected predictor
//!   panics vs a clean server (when fault injection is compiled in).
//! * **governance** — the batch stream under a 1 MiB cache budget, with
//!   the eviction/shed/breaker counters the `stats` op reports. The
//!   budget's annotation share (0.58 MB) is below what a cold pass of
//!   the default suite leaves resident (about 1.4 MB), so the bounded
//!   pass re-annotates evicted blocks. The run exits non-zero if the
//!   section reports no eviction: it would have measured an unbounded
//!   cache.
//!
//! The suite is `--blocks` blocks (default 500: both rotations of 250
//! generated benches), so with the default every batch-stream pass is
//! one 500-block request.
//!
//! ```text
//! cargo run --release -p facile-bench --bin bench_server -- --blocks 1000
//! ```

use facile_bench::Args;
use facile_bhive::generate_suite;
use facile_engine::{host_threads, CacheBudget};
use facile_server::{BoundAddr, Endpoint, Server, ServerConfig};
use facile_util::json;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

const OUT_PATH: &str = "BENCH_server.json";

/// Cache budget of the governance section, in MiB.
const GOVERNANCE_BUDGET_MB: usize = 1;

/// Hex blocks of the benchmark suite: both rotations of each bench.
fn suite_hex(blocks: usize, seed: u64) -> Vec<String> {
    generate_suite(blocks / 2, seed)
        .into_iter()
        .flat_map(|b| [b.unrolled.to_hex(), b.looped.to_hex()])
        .collect()
}

struct Client {
    tx: TcpStream,
    rx: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let tx = TcpStream::connect(addr).expect("server accepts");
        tx.set_nodelay(true).expect("nodelay");
        let rx = BufReader::new(tx.try_clone().expect("stream clones"));
        Client { tx, rx }
    }

    /// One request line out (one `write`, as `facile client` sends
    /// it), one reply line in; panics on `ok:false`.
    fn round_trip(&mut self, req: &str) -> String {
        self.tx
            .write_all(format!("{req}\n").as_bytes())
            .expect("request writes");
        let mut line = String::new();
        self.rx.read_line(&mut line).expect("reply arrives");
        assert!(line.contains("\"ok\":true"), "server error: {line}");
        line
    }
}

struct Percentiles {
    p50_us: f64,
    p99_us: f64,
}

fn percentiles(latencies_us: &mut [f64]) -> Percentiles {
    latencies_us.sort_by(f64::total_cmp);
    let at = |q: f64| {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let i = ((latencies_us.len() - 1) as f64 * q).round() as usize;
        latencies_us[i]
    };
    Percentiles {
        p50_us: at(0.50),
        p99_us: at(0.99),
    }
}

/// `clients` connections, each serving its share of `hexes` as
/// single-block requests. Returns (p50, p99, aggregate blocks/s).
fn measure_round_trips(addr: SocketAddr, hexes: &[String], clients: usize) -> (Percentiles, f64) {
    let wall = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let share: Vec<String> = hexes.iter().skip(c).step_by(clients).cloned().collect();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let mut lat = Vec::with_capacity(share.len());
                for hex in &share {
                    let t0 = Instant::now();
                    client.round_trip(&format!(r#"{{"op":"predict","block":"{hex}"}}"#));
                    lat.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                lat
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    let secs = wall.elapsed().as_secs_f64();
    #[allow(clippy::cast_precision_loss)]
    let bps = hexes.len() as f64 / secs;
    (percentiles(&mut latencies), bps)
}

/// The whole suite as chunked batch requests on one connection.
fn measure_batch_stream(addr: SocketAddr, hexes: &[String], chunk: usize) -> f64 {
    let mut client = Client::connect(addr);
    let t0 = Instant::now();
    for slab in hexes.chunks(chunk) {
        let mut req = String::from("{\"op\":\"batch\",\"blocks\":[");
        for (i, h) in slab.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            let _ = write!(req, "\"{h}\"");
        }
        req.push_str("]}");
        client.round_trip(&req);
    }
    #[allow(clippy::cast_precision_loss)]
    let bps = hexes.len() as f64 / t0.elapsed().as_secs_f64();
    bps
}

/// One pass of the suite as chunked batch requests, counting the rows
/// (and error rows) that come back. Returns (blocks/s, rows, error rows).
fn stream_counting(addr: SocketAddr, hexes: &[String], chunk: usize) -> (f64, u64, u64) {
    let mut client = Client::connect(addr);
    let (mut rows, mut error_rows) = (0u64, 0u64);
    let t0 = Instant::now();
    for slab in hexes.chunks(chunk) {
        let mut req = String::from("{\"op\":\"batch\",\"blocks\":[");
        for (i, h) in slab.iter().enumerate() {
            if i > 0 {
                req.push(',');
            }
            let _ = write!(req, "\"{h}\"");
        }
        req.push_str("]}");
        let reply = client.round_trip(&req);
        let v = json::parse(reply.trim_end()).expect("reply parses");
        if let Some(json::Kind::Arr(r)) = v.get("rows").map(|r| &r.kind) {
            rows += r.len() as u64;
        }
        error_rows += reply.matches("\"status\":\"error\"").count() as u64;
    }
    #[allow(clippy::cast_precision_loss)]
    let bps = hexes.len() as f64 / t0.elapsed().as_secs_f64();
    (bps, rows, error_rows)
}

struct Availability {
    clean_bps: f64,
    faulted_bps: f64,
    throughput_ratio: f64,
    reply_completeness: f64,
    error_rows: u64,
    total_rows: u64,
}

/// Availability under chaos: the batch-stream workload against a clean
/// server vs one injecting predictor panics on ~1% of items. Per-item
/// `catch_unwind` containment should hold served throughput within a
/// hair of clean while every request still gets its full reply.
fn measure_availability(hexes: &[String]) -> Option<Availability> {
    if !facile_server::faults::compiled() {
        return None;
    }
    // Injected panics are the workload here; keep their default-hook
    // backtraces off stderr (and off the measured clock).
    facile_server::faults::install_quiet_panic_hook();
    let run = |faults: Option<&str>| -> (f64, u64, u64) {
        let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
        cfg.threads = host_threads();
        cfg.faults = faults.map(str::to_string);
        let server = Server::start(cfg).expect("server starts");
        let addr = match server.bound() {
            BoundAddr::Tcp(a) => *a,
            #[cfg(unix)]
            other => panic!("expected TCP, got {other}"),
        };
        stream_counting(addr, hexes, 1024); // warm the annotation cache
        let best = (0..3)
            .map(|_| stream_counting(addr, hexes, 1024))
            .reduce(|a, b| if b.0 > a.0 { b } else { a })
            .expect("three reps");
        server.stop();
        facile_server::faults::clear();
        best
    };
    let (clean_bps, clean_rows, clean_errors) = run(None);
    assert_eq!(clean_errors, 0, "clean run produced error rows");
    let (faulted_bps, rows, error_rows) = run(Some("seed=2023,predict-panic=0.01"));
    #[allow(clippy::cast_precision_loss)]
    Some(Availability {
        clean_bps,
        faulted_bps,
        throughput_ratio: faulted_bps / clean_bps,
        reply_completeness: rows as f64 / clean_rows as f64,
        error_rows,
        total_rows: rows,
    })
}

struct Governance {
    bounded_bps: f64,
    cache_bytes: u64,
    cache_evictions: u64,
    budget_bytes: u64,
    shed_batch: u64,
    shed_predict: u64,
    rejected_conn_limit: u64,
    breaker_trips: u64,
}

/// Serving under a tight cache budget: the batch-stream workload against
/// a server whose caches are capped, reporting served throughput plus
/// the eviction/shed/breaker counters the `stats` op exposes. Two full
/// passes, so the second re-annotates whatever the first evicted.
fn measure_governance(hexes: &[String], budget_mb: usize) -> Governance {
    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = host_threads();
    cfg.cache_budget = Some(CacheBudget::from_total_mb(budget_mb));
    let server = Server::start(cfg).expect("server starts");
    let addr = match server.bound() {
        BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    };
    measure_batch_stream(addr, hexes, 1024); // cold pass fills + evicts
    let bounded_bps = measure_batch_stream(addr, hexes, 1024);

    let mut client = Client::connect(addr);
    let reply = client.round_trip(r#"{"op":"stats"}"#);
    let v = json::parse(reply.trim_end()).expect("stats parses");
    let stats = v.get("stats").expect("stats member");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn num(val: Option<&json::Value>) -> u64 {
        val.and_then(json::Value::as_f64).unwrap_or(0.0) as u64
    }
    let block_cache = stats.get("engine").and_then(|e| e.get("block_cache"));
    let srv = stats.get("server");
    let breaker_trips = srv
        .and_then(|s| s.get("external"))
        .and_then(|e| match &e.kind {
            json::Kind::Arr(items) => Some(
                items
                    .iter()
                    .map(|ext| num(ext.get("breaker_trips")))
                    .sum::<u64>(),
            ),
            _ => None,
        })
        .unwrap_or(0);
    let gov = Governance {
        bounded_bps,
        cache_bytes: num(block_cache.and_then(|c| c.get("bytes"))),
        cache_evictions: num(block_cache.and_then(|c| c.get("evictions"))),
        budget_bytes: num(srv
            .and_then(|s| s.get("budget"))
            .and_then(|b| b.get("bytes"))),
        shed_batch: num(srv.and_then(|s| s.get("shed_batch"))),
        shed_predict: num(srv.and_then(|s| s.get("shed_predict"))),
        rejected_conn_limit: num(srv.and_then(|s| s.get("rejected_conn_limit"))),
        breaker_trips,
    };
    server.stop();
    gov
}

fn main() {
    let args = Args::parse();
    let blocks = args.blocks.max(2);
    let hexes = suite_hex(blocks, args.seed);
    eprintln!(
        "bench_server: {} blocks, seed {}, {} host threads",
        hexes.len(),
        args.seed,
        host_threads()
    );

    let mut cfg = ServerConfig::new(Endpoint::Tcp("127.0.0.1:0".to_string()));
    cfg.threads = host_threads();
    let server = Server::start(cfg).expect("server starts");
    let addr = match server.bound() {
        BoundAddr::Tcp(a) => *a,
        #[cfg(unix)]
        other => panic!("expected TCP, got {other}"),
    };

    // Warm the server once so latency sections measure serving, not
    // first-touch annotation.
    measure_batch_stream(addr, &hexes, 1024);

    // One round-trip pass of the default suite lasts tens of
    // milliseconds, so its p50 follows the host's load of the moment:
    // keep the pass with the lowest p50 of several.
    let best_round_trips = |clients| {
        (0..5)
            .map(|_| measure_round_trips(addr, &hexes, clients))
            .reduce(|a, b| if b.0.p50_us < a.0.p50_us { b } else { a })
            .expect("five passes")
    };
    eprintln!("bench_server: round trips, 1 client");
    let (p1, bps1) = best_round_trips(1);
    eprintln!("bench_server: round trips, 8 clients");
    let (p8, bps8) = best_round_trips(8);
    eprintln!("bench_server: batch stream");
    // A pass of the default suite lasts a few milliseconds, so one pass
    // is at the mercy of the scheduler: take the best of several.
    let stream_bps = (0..5)
        .map(|_| measure_batch_stream(addr, &hexes, 1024))
        .fold(0.0, f64::max);

    let counters = server.counters();
    let g = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
    let batches = g(&counters.batches);
    let batched_items = g(&counters.batched_items);
    server.stop();

    eprintln!("bench_server: governance under a {GOVERNANCE_BUDGET_MB} MiB cache budget");
    let gov = measure_governance(&hexes, GOVERNANCE_BUDGET_MB);

    eprintln!("bench_server: availability under 1% injected predictor panics");
    let availability = match measure_availability(&hexes) {
        None => "{ \"compiled\": false }".to_string(),
        Some(a) => format!(
            "{{\n    \"compiled\": true,\n    \"injected_panic_rate\": 0.01,\n    \
             \"clean_blocks_per_sec\": {:.1},\n    \"faulted_blocks_per_sec\": {:.1},\n    \
             \"throughput_ratio\": {:.4},\n    \"reply_completeness\": {:.4},\n    \
             \"total_rows\": {},\n    \"error_rows\": {},\n    \
             \"gate_completeness\": 1.0,\n    \"gate_met\": {}\n  }}",
            a.clean_bps,
            a.faulted_bps,
            a.throughput_ratio,
            a.reply_completeness,
            a.total_rows,
            a.error_rows,
            a.reply_completeness == 1.0 && a.error_rows > 0,
        ),
    };

    #[allow(clippy::cast_precision_loss)]
    let items_per_batch = if batches == 0 {
        0.0
    } else {
        batched_items as f64 / batches as f64
    };
    let json = format!(
        "{{\n  \"benchmark\": \"server_round_trip\",\n  \"blocks\": {},\n  \
         \"seed\": {},\n  \"host_cpus\": {},\n  \
         \"round_trip\": {{\n    \
         \"clients_1\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"blocks_per_sec\": {:.1} }},\n    \
         \"clients_8\": {{ \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"blocks_per_sec\": {:.1} }}\n  }},\n  \
         \"batch_stream\": {{ \"chunk\": 1024, \"blocks_per_sec\": {:.1} }},\n  \
         \"server_batches\": {{ \"batches\": {batches}, \"batched_items\": {batched_items}, \
         \"items_per_batch\": {items_per_batch:.2} }},\n  \
         \"availability\": {availability},\n  \
         \"governance\": {{\n    \"cache_budget_mb\": {GOVERNANCE_BUDGET_MB},\n    \
         \"bounded_blocks_per_sec\": {:.1},\n    \"cache_bytes\": {},\n    \
         \"cache_evictions\": {},\n    \"budget_bytes\": {},\n    \
         \"shed_batch\": {},\n    \"shed_predict\": {},\n    \
         \"rejected_conn_limit\": {},\n    \"breaker_trips\": {}\n  }}\n}}\n",
        hexes.len(),
        args.seed,
        host_threads(),
        p1.p50_us,
        p1.p99_us,
        bps1,
        p8.p50_us,
        p8.p99_us,
        bps8,
        stream_bps,
        gov.bounded_bps,
        gov.cache_bytes,
        gov.cache_evictions,
        gov.budget_bytes,
        gov.shed_batch,
        gov.shed_predict,
        gov.rejected_conn_limit,
        gov.breaker_trips,
    );
    std::fs::write(OUT_PATH, &json).expect("bench output writes");
    print!("{json}");
    eprintln!("bench_server: wrote {OUT_PATH}");
    if gov.cache_evictions == 0 {
        eprintln!(
            "bench_server: the {GOVERNANCE_BUDGET_MB} MiB budget evicted nothing, \
             so governance measured an unbounded cache"
        );
        std::process::exit(1);
    }
}
