//! The traced run: the workload's generated inputs replayed through each
//! crate's public functions, with a span recorded around every call.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends. A span's self time is its duration minus its children's. Three
//! replays feed the per-layer metrics:
//!
//! * **layers** — per block: `Block::from_hex`, then per uarch
//!   `AnnotatedBlock::new_shared`, the seven kernel functions,
//!   `Facile::predict_brief`, `Facile::analyze(.., Detail::Full)`,
//!   `Explanation::to_json`, and the row renderer;
//! * **engine** — `Engine::predict_batch` over the same items, cold and
//!   chunked as the CLI runs it on CLI workloads, warm on serve ones;
//! * **server** — the workload's request lines sent to a live
//!   `facile serve`, each round trip a span whose children are the same
//!   request replayed in process (`protocol::parse_request`, a warm
//!   `Engine::predict_batch`, `protocol::rows_reply`): the round trip's
//!   self time is the time spent waiting (queue, gather window, socket).

use crate::awake::KeepAwake;
use crate::inputs::{auto_mode, item_row, render, Inputs, RowSpec};
use crate::openloop;
use crate::procs::{Conn, Server};
use crate::workloads::{
    batch_requests, predict_schedule, warm_server, Metric, Report, Workload, CLIENT_CHUNK,
    PREDICT_CONNECTIONS,
};
use facile_core::{dec, dsb, issue, lsd, mcr, ports, precedence, predec, Facile};
use facile_engine::{BatchItem, BlockInput, Detail, Engine, ItemResult, Prediction};
use facile_isa::AnnotatedBlock;
use facile_server::{json, parse_request, protocol, Request};
use facile_x86::Block;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Items per CLI engine chunk: `facile --batch` flushes once it holds
/// at least 4096 items, always after a whole block.
const CLI_CHUNK_ITEMS: usize = 4096;
/// Requests the server replay makes at least, on batch workloads.
const MIN_SERVER_REQUESTS: usize = 8;
/// Untraced/traced pass pairs of the layer replay.
const OVERHEAD_PAIRS: usize = 5;
/// Seconds of open-loop traffic the server replay sends on `serve_predict`.
const PREDICT_TRACE_SECONDS: f64 = 2.0;

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index + 1 of the parent span; 0 for a root.
    parent: usize,
    /// The request (block, chunk or protocol request) the call served.
    req: u64,
}

/// An in-memory span recorder. When off, it runs the calls and records
/// nothing, which is how the untraced replay is timed.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a span measured elsewhere; returns its id.
    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: usize,
        req: u64,
    ) -> usize {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len()
    }

    fn open(&mut self, name: &'static str, parent: usize, req: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    fn close(&mut self, id: usize) {
        if id > 0 {
            let end = self.ns(Instant::now());
            self.spans[id - 1].end_ns = end;
        }
    }

    /// Run `f` inside a span.
    fn time<T>(&mut self, name: &'static str, parent: usize, req: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = black_box(f());
        self.record(name, start, Instant::now(), parent, req);
        out
    }

    /// Per span name: calls, total and self nanoseconds.
    fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent - 1] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            // A replayed child need not lie inside its parent's interval,
            // so self time is signed in principle; clamp at zero per span.
            e.2 += dur.saturating_sub(child);
        }
        out
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                f,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.parent,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        f.flush()
    }
}

/// Blocks the layer replay covers: enough calls for stable per-call
/// means, few enough that the trace file stays in the megabytes.
fn replay_blocks(w: Workload, inputs: &Inputs) -> usize {
    let cap = match w {
        Workload::CliBatch => 200,
        _ => 1_000,
    };
    inputs.hex.len().min(cap)
}

/// The layer replay over the first `n` blocks. Returns the rows whose
/// replayed rendering differs from the reference.
fn replay_layers(tr: &mut Tracer, inputs: &Inputs, n: usize, spec: &RowSpec) -> usize {
    let facile = Facile::new();
    let mut failed = 0;
    for (i, hex) in inputs.hex[..n].iter().enumerate() {
        let req = i as u64;
        let root = tr.open("replay.block", 0, req);
        let block = tr
            .time("x86.decode", root, req, || Block::from_hex(hex))
            .expect("generated blocks decode");
        let mode = auto_mode(&block);
        let hex: Arc<str> = Arc::from(hex.as_str());
        let shared = Arc::new(block);
        for (k, &u) in spec.uarchs.iter().enumerate() {
            let ab = tr.time("isa.annotate", root, req, || {
                AnnotatedBlock::new_shared(Arc::clone(&shared), u)
            });
            tr.time("core.predec", root, req, || predec::predec(&ab, mode));
            tr.time("core.dec", root, req, || dec::dec(&ab));
            tr.time("core.dsb", root, req, || dsb::dsb(&ab));
            tr.time("core.lsd", root, req, || lsd::lsd(&ab));
            tr.time("core.issue", root, req, || issue::issue(&ab));
            tr.time("core.ports", root, req, || ports::ports(&ab));
            tr.time("core.precedence", root, req, || precedence::precedence(&ab));
            let brief = tr.time("core.brief", root, req, || facile.predict_brief(&ab, mode));
            let full = tr.time("core.full", root, req, || {
                facile.analyze(&ab, mode, Detail::Full)
            });
            tr.time("explain.to_json", root, req, || full.to_json());
            let prediction = if spec.detail == Detail::Brief {
                Prediction {
                    throughput: brief.throughput,
                    bottleneck: brief.primary_bottleneck(),
                    explanation: None,
                }
            } else {
                Prediction {
                    throughput: full.throughput,
                    bottleneck: full.primary_bottleneck(),
                    explanation: Some(Box::new(full)),
                }
            };
            let row = item_row(&hex, u, mode, prediction);
            let line = tr.time("engine.render", root, req, || render(&row, spec));
            failed += usize::from(line != inputs.rows[i * spec.uarchs.len() + k]);
        }
        tr.close(root);
    }
    failed
}

/// Engine counters over the engine replay.
struct EngineRatios {
    cache_hit: f64,
    dedup: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `Engine::predict_batch` over the first `n` blocks' items: cold and in
/// CLI-sized chunks with the cache cleared after each (as `facile
/// --batch` runs), or warm in client-sized requests. Returns the ratios
/// and the rows that differ from the reference.
fn replay_engine(
    tr: &mut Tracer,
    inputs: &Inputs,
    n: usize,
    spec: &RowSpec,
    cold: bool,
) -> (EngineRatios, usize) {
    let u = spec.uarchs.len();
    let items = batch_items(&inputs.hex[..n], spec);
    let engine = Engine::with_builtins();
    let chunk = if cold {
        CLI_CHUNK_ITEMS.div_ceil(u) * u
    } else {
        engine
            .predict_batch(&items, "facile")
            .expect("facile is registered");
        CLIENT_CHUNK * u
    };
    let (mut hits, mut lookups, mut failed) = (0u64, 0u64, 0);
    let planner0 = engine.snapshot().planner;
    for (c, chunk_items) in items.chunks(chunk).enumerate() {
        let before = engine.snapshot().annotation;
        let rows = tr.time("engine.batch", 0, c as u64, || {
            engine
                .predict_batch(chunk_items, "facile")
                .expect("facile is registered")
        });
        let after = engine.snapshot().annotation;
        hits += after.hits - before.hits;
        lookups += after.hits + after.misses - before.hits - before.misses;
        failed += mismatched(&rows, &inputs.rows[c * chunk..], spec);
        if cold {
            engine.clear_cache();
        }
    }
    let planner = engine.snapshot().planner;
    #[allow(clippy::cast_precision_loss)]
    let ratios = EngineRatios {
        cache_hit: ratio(hits as f64, lookups as f64),
        dedup: ratio(
            (planner.deduped - planner0.deduped) as f64,
            (planner.items - planner0.items) as f64,
        ),
    };
    (ratios, failed)
}

fn batch_items(hex: &[String], spec: &RowSpec) -> Vec<BatchItem> {
    hex.iter()
        .flat_map(|h| {
            spec.uarchs.iter().map(|&u| BatchItem {
                input: BlockInput::Hex(h.clone()),
                uarch: u,
                mode: None,
                detail: spec.detail,
            })
        })
        .collect()
}

fn mismatched(rows: &[ItemResult], expected: &[String], spec: &RowSpec) -> usize {
    rows.iter()
        .zip(expected)
        .filter(|(r, e)| render(r, spec) != **e)
        .count()
}

/// What the server replay measured.
struct ServerReplay {
    requests: u64,
    blocks: u64,
    failed: u64,
    items_per_batch: f64,
    cache_hit: f64,
    dedup: f64,
}

/// Replay one request in process under the round trip's span: the
/// server's parse, a warm engine batch, and the reply rendering. Returns
/// the request's item count.
fn replay_request(tr: &mut Tracer, engine: &Engine, root: usize, req: u64, line: &str) -> u64 {
    let parsed = tr
        .time("server.parse", root, req, || parse_request(line))
        .expect("the benchmark sends valid requests");
    let Request::Predict(work) = parsed.request else {
        unreachable!("the benchmark sends only prediction requests")
    };
    let rows = tr.time("server.batch", root, req, || {
        engine
            .predict_batch(&work.items, "facile")
            .expect("facile is registered")
    });
    tr.time("server.reply", root, req, || {
        protocol::rows_reply(parsed.id.as_deref(), &rows, work.render, work.explain)
    });
    work.items.len() as u64
}

/// Blocks per `batch` request in the server replay: the client's
/// default on `serve_stream`; on the CLI workloads, requests small enough
/// that the client's reply parsing finishes within the run (a 1024-block
/// all-uarch CSV reply takes tens of seconds to parse).
fn server_chunk(w: Workload) -> usize {
    match w {
        Workload::CliBatch | Workload::CliExplain => 32,
        Workload::ServeStream | Workload::ServePredict => CLIENT_CHUNK,
    }
}

/// The server replay over the first `n` blocks.
fn replay_server(
    tr: &mut Tracer,
    bin: &Path,
    w: Workload,
    inputs: &Inputs,
    n: usize,
    seed: u64,
) -> Result<ServerReplay, String> {
    let spec = w.spec();
    let server = Server::start(bin)?;
    let requests = batch_requests(inputs, n, &spec, server_chunk(w));
    warm_server(&server, &requests)?;
    let engine = Engine::with_builtins();
    engine
        .predict_batch(&batch_items(&inputs.hex[..n], &spec), "facile")
        .expect("facile is registered");
    let stats0 = server.stats()?;
    let (mut sent, mut blocks, mut failed) = (0u64, 0u64, 0u64);
    if w == Workload::ServePredict {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let count = (PREDICT_TRACE_SECONDS * crate::workloads::PREDICT_RATE) as usize;
        let schedule = predict_schedule(inputs, seed.wrapping_add(2), count);
        let awake = KeepAwake::start();
        let (t0, outcomes) = openloop::run(&server.addr, &schedule, PREDICT_CONNECTIONS, true)?;
        drop(awake);
        for (i, o) in outcomes.iter().enumerate() {
            sent += 1;
            failed += u64::from(!o.ok);
            let (Some(sent), Some(received), Some(reply)) = (o.sent, o.received, &o.reply) else {
                continue;
            };
            let req = i as u64;
            let root = tr.record("client.round_trip", t0 + sent, t0 + received, 0, req);
            let _parsed = tr.time("client.reply_parse", 0, req, || json::parse(reply));
            blocks += replay_request(tr, &engine, root, req, &schedule[i].line);
        }
    } else {
        let mut conn = Conn::open(&server.addr)?;
        let passes = MIN_SERVER_REQUESTS.div_ceil(requests.len());
        for (k, (line, expected)) in requests
            .iter()
            .cycle()
            .take(passes * requests.len())
            .enumerate()
        {
            let req = k as u64;
            let start = Instant::now();
            let reply = conn.round_trip(line)?;
            let root = tr.record("client.round_trip", start, Instant::now(), 0, req);
            sent += 1;
            failed += u64::from(reply != *expected);
            let _parsed = tr.time("client.reply_parse", 0, req, || json::parse(&reply));
            blocks += replay_request(tr, &engine, root, req, line) / inputs.rows_per_block as u64;
        }
    }
    let d = stats0.delta(&server.stats()?);
    drop(server);
    Ok(ServerReplay {
        requests: sent,
        blocks,
        failed,
        items_per_batch: ratio(d.batched_items, d.batches),
        cache_hit: ratio(d.annotate_hits, d.annotate_hits + d.annotate_misses),
        dedup: ratio(d.deduped, d.planned),
    })
}

/// Run the three replays for workload `w` and derive the per-layer
/// metrics; the spans go to `dir`.
pub fn run(
    bin: &Path,
    w: Workload,
    inputs: &Inputs,
    seed: u64,
    dir: &Path,
) -> Result<Report, String> {
    let spec = w.spec();
    let n = replay_blocks(w, inputs);
    let rows = (n * spec.uarchs.len()) as u64;

    // Tracing overhead: untimed warm-up, then alternating untraced and
    // traced passes over the same blocks; the fastest pass of each kind
    // is the one least disturbed by other work on the host.
    replay_layers(&mut Tracer::new(false), inputs, n, &spec);
    let mut tr = Tracer::new(true);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let tables0 = facile_isa::static_table_stats();
    let solves0 = mcr::solve_path_counts();
    let mut failed = 0u64;
    for _ in 0..OVERHEAD_PAIRS {
        let t = Instant::now();
        replay_layers(&mut Tracer::new(false), inputs, n, &spec);
        off.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        failed += replay_layers(&mut tr, inputs, n, &spec) as u64;
        on.push(t.elapsed().as_secs_f64());
    }
    let tables = facile_isa::static_table_stats();
    let solves = mcr::solve_path_counts();
    let intern_entries = facile_isa::intern_stats().entries;

    let cold = matches!(w, Workload::CliBatch | Workload::CliExplain);
    let (engine_ratios, engine_failed) = replay_engine(&mut tr, inputs, n, &spec, cold);
    let server = replay_server(&mut tr, bin, w, inputs, n, seed)?;
    failed += engine_failed as u64 + server.failed;

    let summary = tr.summary();
    let path = dir.join(format!("trace-{}.jsonl", w.name()));
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    #[allow(clippy::cast_precision_loss)]
    let per = |name: &str, den: u64| -> f64 {
        summary
            .get(name)
            .map_or(0.0, |s| s.1 as f64 / 1e3 / den.max(1) as f64)
    };
    let per_call = |name: &str| per(name, summary.get(name).map_or(1, |s| s.0));
    #[allow(clippy::cast_precision_loss)]
    let wait_us = summary
        .get("client.round_trip")
        .map_or(0.0, |s| s.2 as f64 / 1e3 / server.requests.max(1) as f64);
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (off_s, on_s) = (fastest(&off), fastest(&on));
    let (hits, falls) = (
        tables.hits - tables0.hits,
        tables.fallbacks - tables0.fallbacks,
    );
    let howard = solves.howard - solves0.howard;
    let all_solves = howard + solves.acyclic - solves0.acyclic + solves.simple_cycle
        - solves0.simple_cycle
        + solves.longest_path
        - solves0.longest_path;
    let (cache_hit, dedup) = if cold {
        (engine_ratios.cache_hit, engine_ratios.dedup)
    } else {
        (server.cache_hit, server.dedup)
    };
    #[allow(clippy::cast_precision_loss)]
    let metrics: Vec<Metric> = vec![
        ("x86.decode_us", per_call("x86.decode"), "us"),
        ("isa.annotate_us", per_call("isa.annotate"), "us"),
        (
            "isa.table_hit_ratio",
            ratio(hits as f64, (hits + falls) as f64),
            "ratio",
        ),
        ("isa.intern_entries", intern_entries as f64, "count"),
        ("core.predec_us", per_call("core.predec"), "us"),
        ("core.dec_us", per_call("core.dec"), "us"),
        ("core.dsb_us", per_call("core.dsb"), "us"),
        ("core.lsd_us", per_call("core.lsd"), "us"),
        ("core.issue_us", per_call("core.issue"), "us"),
        ("core.ports_us", per_call("core.ports"), "us"),
        ("core.precedence_us", per_call("core.precedence"), "us"),
        ("core.brief_us", per_call("core.brief"), "us"),
        ("core.full_us", per_call("core.full"), "us"),
        (
            "core.howard_share",
            ratio(howard as f64, all_solves as f64),
            "ratio",
        ),
        ("explain.to_json_us", per_call("explain.to_json"), "us"),
        ("engine.batch_us", per("engine.batch", rows), "us"),
        ("engine.render_us", per_call("engine.render"), "us"),
        ("engine.cache_hit_ratio", cache_hit, "ratio"),
        ("engine.dedup_ratio", dedup, "ratio"),
        ("server.parse_us", per("server.parse", server.blocks), "us"),
        ("server.reply_us", per("server.reply", server.blocks), "us"),
        ("server.wait_us", wait_us, "us"),
        ("server.items_per_batch", server.items_per_batch, "count"),
        (
            "client.reply_parse_us",
            per("client.reply_parse", server.blocks),
            "us",
        ),
        ("trace.overhead_pct", (on_s - off_s) / off_s * 100.0, "%"),
        ("trace.spans", tr.spans.len() as f64, "count"),
    ];

    let mut notes = vec![
        format!(
            "layer replay: {n} blocks x {} uarchs, {OVERHEAD_PAIRS} traced passes; engine replay {}; \
             server replay: {} requests ({} blocks)",
            spec.uarchs.len(),
            if cold { "cold, CLI chunks" } else { "warm, client chunks" },
            server.requests,
            server.blocks
        ),
        format!(
            "tracing overhead: layer replay {:.1} ms untraced vs {:.1} ms traced \
             (fastest of {OVERHEAD_PAIRS} each)",
            off_s * 1e3,
            on_s * 1e3
        ),
        format!("spans written to {}", path.display()),
        "self times (span name, calls, total ms, self ms):".to_string(),
    ];
    #[allow(clippy::cast_precision_loss)]
    notes.extend(summary.iter().map(|(name, (count, total, own))| {
        format!(
            "  {name:<20} {count:>8} {:>10.3} {:>10.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        )
    }));
    Ok(Report {
        metrics,
        notes,
        attempted: rows * OVERHEAD_PAIRS as u64 + rows + server.requests,
        failed,
    })
}
