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
//!   median annotate-included pass), and the nine-uarch sweep — warm and
//!   cold — which exercises the planner batch API and the two-level
//!   decode/annotate cache — and the warm single-thread `Detail::Full`
//!   pass, all floors; plus two ceilings on accounted bytes (byte
//!   accounting is deterministic on the fixed corpus, so these gates
//!   cannot flake): `annotation_cache.bytes`, what the single-uarch cold
//!   and warm passes leave resident, and `multi_uarch.annotation_bytes`,
//!   what the cold nine-uarch sweep leaves resident (one shared dataflow
//!   and nine annotations per block). Parallel-vs-single is additionally required not to be a
//!   slowdown (>= 0.95 to leave room for timer noise on busy runners).
//!   Baselines from before the multi-uarch sweep or the Full-detail pass
//!   existed simply skip those gates (their paths are absent).
//! * `server_round_trip` (`BENCH_server.json`, from `bench_server`):
//!   the served batch stream, `batch_stream.blocks_per_sec` — a client
//!   streaming chunked `batch` requests through a live daemon, end to
//!   end — and the lone round trip, `round_trip.clients_1.p50_us`, a
//!   ceiling: one client's single-block `predict` latency.
//!
//! Both files are parsed with `facile_util::json`, and each gated value
//! is looked up by its path, e.g. `single_thread.warm_cache_blocks_per_sec`.
//!
//! Used by CI: each committed file is copied aside, its benchmark
//! re-runs, and this gate rejects the build if any gated configuration
//! regressed by more than 25%.

use facile_util::json::{self, Value};
use std::process::ExitCode;

/// The number at a dotted `path` in a parsed bench file, e.g.
/// `round_trip.clients_1.p50_us`; `None` when any step is missing.
fn number_at(doc: &Value, path: &str) -> Option<f64> {
    path.split('.').try_fold(doc, |v, key| v.get(key))?.as_f64()
}

/// The top-level `"benchmark"` name, which picks the gates.
fn benchmark(doc: &Value) -> Option<&str> {
    doc.get("benchmark").and_then(Value::as_str)
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

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
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
    if benchmark(&fresh) != benchmark(&baseline) {
        return Err(format!(
            "{baseline_path} and {fresh_path} come from different benchmarks"
        ));
    }
    check(&baseline, &fresh, max_regression)
}

/// Apply the gates of `baseline`'s benchmark to `fresh`.
fn check(baseline: &Value, fresh: &Value, max_regression: f64) -> Result<(), String> {
    let server = benchmark(baseline) == Some("server_round_trip");
    // Gated configurations: (label, path, required, gate).
    // `multi_uarch`, its `annotation_bytes` and `full_detail` are
    // optional so the gate still works against baselines committed
    // before they existed.
    let gates: &[(&str, &str, bool, Gate)] = if server {
        &[
            (
                "served batch stream",
                "batch_stream.blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "lone round trip p50",
                "round_trip.clients_1.p50_us",
                true,
                Gate::Ceiling("us"),
            ),
        ]
    } else {
        &[
            (
                "warm single-thread",
                "single_thread.warm_cache_blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "cold single-thread",
                "single_thread.cold_cache_blocks_per_sec",
                true,
                Gate::Floor("blocks/s"),
            ),
            (
                "full-detail warm single-thread",
                "full_detail.warm_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "multi-uarch sweep warm",
                "multi_uarch.warm_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "multi-uarch sweep cold",
                "multi_uarch.cold_cache_blocks_per_sec",
                false,
                Gate::Floor("blocks/s"),
            ),
            (
                "annotation cache bytes",
                "annotation_cache.bytes",
                false,
                Gate::Ceiling("bytes"),
            ),
            (
                "multi-uarch sweep annotation bytes",
                "multi_uarch.annotation_bytes",
                false,
                Gate::Ceiling("bytes"),
            ),
        ]
    };
    for &(label, path, required, gate) in gates {
        let base = match number_at(baseline, path) {
            Some(v) => v,
            None if !required => {
                println!("{label}: baseline predates {path}; gate skipped");
                continue;
            }
            None => return Err(format!("field {path} not found in baseline")),
        };
        let fresh_v = number_at(fresh, path)
            .ok_or_else(|| format!("field {path} not found in fresh result"))?;
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
    let speedup =
        number_at(fresh, "parallel_speedup_warm").ok_or("field parallel_speedup_warm not found")?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Value {
        json::parse(text).expect("test document parses")
    }

    /// A key is looked up in its own section only: a later section's
    /// value of the same name leaves it missing, so an optional gate is
    /// skipped instead of comparing against the wrong number.
    #[test]
    fn a_later_sections_value_is_not_read() {
        let baseline = doc(r#"{"benchmark":"engine_batch_throughput",
                "single_thread":{"warm_cache_blocks_per_sec":100,"cold_cache_blocks_per_sec":50},
                "full_detail":{},
                "multi_uarch":{"warm_cache_blocks_per_sec":5},"parallel_speedup_warm":1.0}"#);
        assert_eq!(
            number_at(&baseline, "full_detail.warm_cache_blocks_per_sec"),
            None
        );
        assert_eq!(
            number_at(&baseline, "multi_uarch.warm_cache_blocks_per_sec"),
            Some(5.0)
        );
        // The fresh run's full-detail pass would fail a floor of 5 × 0.75.
        let fresh = doc(r#"{"benchmark":"engine_batch_throughput",
                "single_thread":{"warm_cache_blocks_per_sec":100,"cold_cache_blocks_per_sec":50},
                "full_detail":{"warm_cache_blocks_per_sec":1},
                "multi_uarch":{"warm_cache_blocks_per_sec":5},"parallel_speedup_warm":1.0}"#);
        assert_eq!(check(&baseline, &fresh, 0.25), Ok(()));
    }

    /// The sweep's resident bytes are a ceiling, gated only when the
    /// baseline records them.
    #[test]
    fn sweep_annotation_bytes_are_a_ceiling() {
        let file = |bytes: &str| {
            doc(&format!(
                r#"{{"benchmark":"engine_batch_throughput",
                "single_thread":{{"warm_cache_blocks_per_sec":100,"cold_cache_blocks_per_sec":50}},
                "multi_uarch":{{{bytes}}},"parallel_speedup_warm":1.0}}"#
            ))
        };
        let baseline = file(r#""annotation_bytes":1000"#);
        assert_eq!(
            check(&baseline, &file(r#""annotation_bytes":1200"#), 0.25),
            Ok(())
        );
        let err = check(&baseline, &file(r#""annotation_bytes":1300"#), 0.25).unwrap_err();
        assert!(err.contains("multi-uarch sweep annotation bytes"), "{err}");
        // An older baseline without the field skips the gate.
        assert_eq!(
            check(&file(""), &file(r#""annotation_bytes":1300"#), 0.25),
            Ok(())
        );
    }
}
