//! Compare a fresh benchmark result against a committed baseline and
//! fail (exit 1) on a regression beyond the tolerance: a throughput
//! below baseline × (1 − tolerance), or a latency or byte count above
//! baseline × (1 + tolerance).
//!
//! ```text
//! bench_check <baseline.json> <fresh.json> [--max-regression 0.25]
//! ```
//!
//! The file's `"benchmark"` field picks the gates:
//!
//! * `engine_batch_throughput` (`BENCH_engine.json`, from
//!   `bench_engine`): warm single-thread, cold single-thread (the
//!   annotate-included first pass), and the nine-uarch sweep — warm and
//!   cold — which exercises the planner batch API and the two-level
//!   decode/annotate cache — and the warm single-thread `Detail::Full`
//!   pass, all floors; plus `annotation_cache.bytes`, a ceiling on the
//!   accounted bytes the cold and warm passes leave resident (byte
//!   accounting is deterministic on the fixed corpus, so this gate
//!   cannot flake). Parallel-vs-single is additionally required not to be a
//!   slowdown (>= 0.95 to leave room for timer noise on busy runners).
//!   Baselines from before the multi-uarch sweep or the Full-detail pass
//!   existed simply skip those gates (the field probe reports them as
//!   absent).
//! * `server_round_trip` (`BENCH_server.json`, from `bench_server`):
//!   the served batch stream, `batch_stream.blocks_per_sec` — a client
//!   streaming chunked `batch` requests through a live daemon, end to
//!   end — and the lone round trip, `round_trip.clients_1.p50_us`, a
//!   ceiling: one client's single-block `predict` latency.
//!
//! Used by CI: each committed file is copied aside, its benchmark
//! re-runs, and this gate rejects the build if any gated configuration
//! regressed by more than 25%.

use std::process::ExitCode;

/// Extract the number following `"key":` after `section` in a flat JSON
/// text (the bench file is machine-written; no general parser needed).
fn field(json: &str, section: &str, key: &str) -> Option<f64> {
    let sec = json.find(&format!("\"{section}\""))?;
    let tail = &json[sec..];
    let k = tail.find(&format!("\"{key}\""))?;
    let tail = &tail[k..];
    let colon = tail.find(':')?;
    let rest = tail[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value of the top-level `"benchmark"` field.
fn benchmark_name(json: &str) -> Option<&str> {
    let k = json.find("\"benchmark\"")?;
    let rest = json[k + "\"benchmark\"".len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

/// Which way a gated value regresses, with its unit.
#[derive(Clone, Copy)]
enum Gate {
    /// Higher is better (a throughput): fail below baseline × (1 − tolerance).
    Floor(&'static str),
    /// Lower is better (a latency, a byte count): fail above
    /// baseline × (1 + tolerance).
    Ceiling(&'static str),
}

fn load(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let baseline_path = args
        .next()
        .ok_or("usage: bench_check <baseline.json> <fresh.json> [--max-regression R]")?;
    let fresh_path = args
        .next()
        .ok_or("usage: bench_check <baseline.json> <fresh.json> [--max-regression R]")?;
    let mut max_regression = 0.25;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--max-regression" => {
                max_regression = args
                    .next()
                    .ok_or("--max-regression requires a value")?
                    .parse()
                    .map_err(|e| format!("bad --max-regression: {e}"))?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }

    let baseline = load(&baseline_path)?;
    let fresh = load(&fresh_path)?;
    let name = benchmark_name(&baseline);
    if benchmark_name(&fresh) != name {
        return Err(format!(
            "{baseline_path} and {fresh_path} come from different benchmarks"
        ));
    }
    let server = name == Some("server_round_trip");
    // Gated configurations: (label, json section, key, required, gate).
    // `multi_uarch` and `full_detail` are optional so the gate still
    // works against baselines committed before they existed.
    let gates: &[(&str, &str, &str, bool, Gate)] = if server {
        &[
            (
                "served batch stream",
                "batch_stream",
                "blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "lone round trip p50",
                "clients_1",
                "p50_us",
                true,
                Gate::Ceiling("us"),
            ),
        ]
    } else {
        &[
            (
                "warm single-thread",
                "single_thread",
                "warm_cache_blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "cold single-thread",
                "single_thread",
                "cold_cache_blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "full-detail warm single-thread",
                "full_detail",
                "warm_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "multi-uarch sweep warm",
                "multi_uarch",
                "warm_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "multi-uarch sweep cold",
                "multi_uarch",
                "cold_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "annotation cache bytes",
                "annotation_cache",
                "bytes",
                false,
                Gate::Ceiling("bytes"),
            ),
        ]
    };
    for &(label, section, key, required, gate) in gates {
        let base = match field(&baseline, section, key) {
            Some(v) => v,
            None if !required => {
                println!("{label}: baseline predates {section}.{key}; gate skipped");
                continue;
            }
            None => return Err(format!("field {section}.{key} not found in baseline")),
        };
        let fresh_v = field(&fresh, section, key)
            .ok_or_else(|| format!("field {section}.{key} not found in fresh result"))?;
        let tolerance = max_regression * 100.0;
        match gate {
            Gate::Ceiling(unit) => {
                let ceiling = base * (1.0 + max_regression);
                println!(
                    "{label}: baseline {base:.1} {unit}, fresh {fresh_v:.1} {unit} \
                     (ceiling {ceiling:.1}, tolerance {tolerance:.0}%)"
                );
                if fresh_v > ceiling {
                    return Err(format!(
                        "{label} regression: {fresh_v:.1} > {ceiling:.1} {unit} \
                         ({:.1}% above the committed baseline)",
                        (fresh_v / base - 1.0) * 100.0
                    ));
                }
            }
            Gate::Floor(unit) => {
                let floor = base * (1.0 - max_regression);
                println!(
                    "{label}: baseline {base:.0} {unit}, fresh {fresh_v:.0} {unit} \
                     (floor {floor:.0}, tolerance {tolerance:.0}%)"
                );
                if fresh_v < floor {
                    return Err(format!(
                        "{label} regression: {fresh_v:.0} < {floor:.0} {unit} \
                         ({:.1}% below the committed baseline)",
                        (1.0 - fresh_v / base) * 100.0
                    ));
                }
            }
        }
    }

    if server {
        println!("bench_check: OK");
        return Ok(());
    }
    // Top-level field: section and key coincide.
    let speedup = field(&fresh, "parallel_speedup_warm", "parallel_speedup_warm")
        .ok_or("field parallel_speedup_warm not found")?;
    println!("parallel_speedup_warm: {speedup:.3}");
    if speedup < 0.95 {
        return Err(format!(
            "the worker pool makes the engine slower: parallel_speedup_warm = {speedup:.3} < 0.95"
        ));
    }
    println!("bench_check: OK");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_check: FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
