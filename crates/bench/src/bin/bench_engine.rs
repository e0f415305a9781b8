//! Batch-throughput microbenchmark for the prediction engine: the
//! repository's perf gate on the paper's ~10,000× speed claim. Measures
//! blocks/second through `Engine::predict_batch` — single-thread vs
//! parallel, cold vs warm cache, plus a nine-uarch sweep that exercises
//! the two-level (decode-once / annotate-per-uarch) cache and a warm
//! `Detail::Full` pass (the explain path: critical chains and evidence
//! for every component) — verifies
//! that multi-threaded output is byte-identical to single-threaded
//! output (single-uarch and sweep alike), records per-kernel
//! mean/p50/p99/max timing and per-batch annotation-pass timing from a
//! separate instrumented cold pass, reports static-table coverage (hits,
//! fallbacks) over a cold pass, and writes the numbers to
//! `BENCH_engine.json`. A warm Brief pass is answered from the Brief
//! rows the cache keeps beside each annotation, so it times the probe
//! and the row fan-out, not the model; the warm `Detail::Full` pass
//! still runs the model on every block. A measurement repeats its pass
//! until 200 ms have elapsed: a cold one clears the cache before each pass and
//! reports the median pass, a warm one reports the best. No descriptor
//! memo outlives a cleared cache, so every cold pass times decode,
//! dataflow and annotation in full. The recorded cache counters come from untimed passes, one cold and one
//! warm on a fresh engine, so they are the same on every run.
//!
//! Host reporting is honest: `host_cpus` and `threads_parallel` are both
//! derived from `available_parallelism`. On a single-CPU host the
//! parallel configuration *is* the single-threaded configuration (the
//! engine falls back to inline execution), so the single-thread
//! measurements are reused verbatim for the parallel section and a
//! `note` field says so — re-measuring the same configuration would only
//! report timer noise as a "speedup".
//!
//! ```text
//! cargo run --release -p facile-bench --bin bench_engine -- --blocks 2000
//! ```

use facile_bench::Args;
use facile_core::mcr::{solve_path_counts, SolvePathCounts};
use facile_engine::{
    host_threads, BatchItem, Detail, Engine, EngineStats, ItemResult, PredictorRegistry,
};
use facile_uarch::Uarch;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const OUT_PATH: &str = "BENCH_engine.json";
const SELECTOR: &str = "facile";

fn signature(rows: &[ItemResult]) -> String {
    let mut s = String::new();
    for r in rows {
        let outcome = match &r.prediction {
            Ok(p) => format!("{:.6}|{:?}", p.throughput, p.bottleneck),
            Err(e) => format!("err:{}", e.code()),
        };
        let _ = writeln!(
            s,
            "{}|{}|{}|{:?}|{}|{outcome}",
            r.item, r.block_hex, r.uarch, r.mode, r.predictor
        );
    }
    s
}

#[derive(Clone, Copy)]
struct Measured {
    secs: f64,
    blocks_per_sec: f64,
}

/// How many times a measurement runs its batch, and which pass it
/// reports.
#[derive(Clone, Copy)]
enum Passes {
    /// One pass, for a check or an instrumented run rather than a
    /// measurement.
    Once,
    /// Passes on a cleared cache until [`BUDGET`] has elapsed in total;
    /// the median is reported (one cold pass read as much as 35% apart
    /// from the next on an unchanged engine).
    Cold,
    /// Passes until [`BUDGET`] has elapsed in total; the best is
    /// reported.
    Warm,
}

/// A measurement repeats its pass until it has run this long in total:
/// a pass lasts ~10–90 ms, so among three of them one preemption could
/// decide the result.
const BUDGET: Duration = Duration::from_millis(200);

/// Run the batch as `passes` says and report the chosen pass.
fn run(engine: &Engine, items: &[BatchItem], passes: Passes) -> (Measured, Vec<ItemResult>) {
    let mut secs = Vec::new();
    let mut total = Duration::ZERO;
    let mut rows;
    loop {
        if matches!(passes, Passes::Cold) {
            // The static-table counters are process-wide; resetting them
            // with the cache scopes the recorded coverage to one pass.
            engine.clear_cache();
            facile_isa::reset_static_table_stats();
        }
        let t0 = Instant::now();
        rows = engine
            .predict_batch(items, SELECTOR)
            .expect("facile is registered");
        let elapsed = t0.elapsed();
        secs.push(elapsed.as_secs_f64());
        total += elapsed;
        if matches!(passes, Passes::Once) || total >= BUDGET {
            break;
        }
    }
    secs.sort_by(f64::total_cmp);
    let secs = match passes {
        Passes::Cold => secs[secs.len() / 2],
        Passes::Once | Passes::Warm => secs[0],
    };
    #[allow(clippy::cast_precision_loss)]
    let bps = items.len() as f64 / secs;
    (
        Measured {
            secs,
            blocks_per_sec: bps,
        },
        rows,
    )
}

/// The counters of one cold pass on a fresh single-thread engine plus
/// exactly one warm pass, with the Howard solves they made. A timed
/// measurement runs as many passes as fit in [`BUDGET`], so its engine's
/// hit counts differ from run to run. The solver counts are
/// process-wide and keep counting across engines, so their counts are
/// the ones these two passes made.
fn counted_passes(items: &[BatchItem]) -> (EngineStats, SolvePathCounts) {
    let engine = Engine::new(PredictorRegistry::with_builtins()).with_threads(1);
    facile_isa::reset_static_table_stats();
    let solves0 = solve_path_counts();
    let _ = run(&engine, items, Passes::Once);
    let _ = run(&engine, items, Passes::Once);
    let (stats, solves) = (engine.snapshot(), solve_path_counts());
    let solves = SolvePathCounts {
        acyclic: solves.acyclic - solves0.acyclic,
        howard: solves.howard - solves0.howard,
        ..solves
    };
    (stats, solves)
}

fn main() {
    let args = Args::parse();
    let uarch = if args.uarchs == Uarch::ALL.to_vec() {
        Uarch::Skl
    } else {
        args.uarchs.first().copied().unwrap_or(Uarch::Skl)
    };
    let n = args.blocks.max(1000);
    eprintln!("bench_engine: {n} blocks on {uarch}, predictors `{SELECTOR}`");

    let suite = facile_bhive::generate_suite(n, args.seed);
    // One shared handle per block, built outside the timed region: every
    // item (and every uarch of the sweep) shares the decoded block
    // instead of cloning its bytes per item.
    let blocks: Vec<std::sync::Arc<facile_x86::Block>> = suite
        .iter()
        .map(|b| std::sync::Arc::new(b.unrolled.clone()))
        .collect();
    let items: Vec<BatchItem> = blocks
        .iter()
        .map(|b| BatchItem::shared(std::sync::Arc::clone(b), uarch))
        .collect();

    // Honest host reporting: the parallel configuration uses exactly the
    // host's available parallelism, and both numbers are recorded.
    let host_cpus = host_threads();
    let parallel_threads = host_cpus;

    // Cold cache, single thread (annotation cost included).
    let single = Engine::new(PredictorRegistry::with_builtins()).with_threads(1);
    let (cold_single, rows_single) = run(&single, &items, Passes::Cold);
    // Warm cache, single thread: annotations and Brief rows memoized,
    // so a warm pass runs no model.
    let (warm_single, _) = run(&single, &items, Passes::Warm);
    // Cache counters over one cold and one warm pass: the hit counts
    // explain the warm-over-cold speedup.
    let (stats, solver) = counted_passes(&items);
    // Full detail, warm, single thread: the same blocks with every
    // component's evidence, precedence's critical chain included.
    let full_items: Vec<BatchItem> = items
        .iter()
        .map(|i| i.clone().with_detail(Detail::Full))
        .collect();
    let (full_warm, _) = run(&single, &full_items, Passes::Warm);

    // Multi-uarch sweep: the same blocks across all nine
    // microarchitectures, exercising the planner batch API and the
    // two-level cache (decode once per bytes, annotate per uarch).
    let sweep_items: Vec<BatchItem> = blocks
        .iter()
        .flat_map(|b| {
            Uarch::ALL
                .iter()
                .map(|&u| BatchItem::shared(std::sync::Arc::clone(b), u))
        })
        .collect();
    let sweep_engine = Engine::new(PredictorRegistry::with_builtins()).with_threads(1);
    let (sweep_cold, rows_sweep) = run(&sweep_engine, &sweep_items, Passes::Cold);
    // Accounted bytes a cold sweep leaves resident: one dataflow per
    // block plus nine per-uarch annotations.
    let sweep_bytes = sweep_engine.snapshot().annotation.bytes;
    let (sweep_warm, _) = run(&sweep_engine, &sweep_items, Passes::Warm);
    let (sweep_stats, _) = counted_passes(&sweep_items);

    // Determinism gate: a many-threaded engine (even when time-sliced on
    // few CPUs, this exercises the chunked parallel map) must produce
    // byte-identical rows.
    let check_threads = host_cpus.max(8);
    let checker = Engine::new(PredictorRegistry::with_builtins()).with_threads(check_threads);
    let (_, rows_checker) = run(&checker, &items, Passes::Once);
    assert_eq!(
        signature(&rows_single),
        signature(&rows_checker),
        "parallel batch output must be byte-identical to single-threaded"
    );
    // The sweep too: its rows reuse bounds across a block's uarchs on
    // whichever worker predicts them, and must not depend on that.
    let (_, rows_sweep_checker) = run(&checker, &sweep_items, Passes::Once);
    assert_eq!(
        signature(&rows_sweep),
        signature(&rows_sweep_checker),
        "parallel sweep output must be byte-identical to single-threaded"
    );
    eprintln!(
        "determinism check: {check_threads}-thread output identical to 1-thread, \
         single-uarch and nine-uarch sweep"
    );

    // Parallel throughput: only a separate measurement when the host can
    // actually run workers in parallel.
    let (cold_parallel, warm_parallel, note) = if parallel_threads > 1 {
        let parallel =
            Engine::new(PredictorRegistry::with_builtins()).with_threads(parallel_threads);
        let (cold, _) = run(&parallel, &items, Passes::Cold);
        let (warm, _) = run(&parallel, &items, Passes::Warm);
        (cold, warm, None)
    } else {
        (
            cold_single,
            warm_single,
            Some(
                "host has 1 CPU: the parallel configuration degenerates to the \
                 single-threaded engine, so its measurements are reused verbatim",
            ),
        )
    };

    // Per-kernel and annotation-pass timing from a separate instrumented
    // cold pass on a fresh engine (the timed measurements above run
    // without instrumentation, so the recorded throughput never pays for
    // the clock reads). A warm pass would time nothing: it answers every
    // unit from the Brief rows the cache keeps, without running a kernel.
    let pass_cells = [
        ("dataflow", &facile_isa::cols::DATAFLOW),
        ("annotate", &facile_isa::cols::ANNOTATE),
    ];
    for cell in facile_core::timing::KERNELS
        .iter()
        .chain(pass_cells.map(|(_, c)| c))
    {
        cell.reset();
    }
    Engine::set_kernel_timing(true);
    let fresh = Engine::new(PredictorRegistry::with_builtins()).with_threads(1);
    let _ = run(&fresh, &items, Passes::Once);
    Engine::set_kernel_timing(false);
    let kernels = facile_core::timing::snapshot();
    let kernel_json: Vec<String> = facile_core::Component::ALL
        .into_iter()
        .map(|c| (c.name(), kernels[c as usize]))
        .filter(|(_, k)| k.count > 0)
        .map(|(name, k)| format!("    {}", k.json_row("kernel", name)))
        .collect();
    let pass_json: Vec<String> = pass_cells
        .into_iter()
        .map(|(name, cell)| (name, cell.snapshot()))
        .filter(|(_, t)| t.count > 0)
        .map(|(name, t)| format!("    {}", t.json_row("pass", name)))
        .collect();
    let tables = stats.static_tables;
    let speedup_parallel = warm_parallel.blocks_per_sec / warm_single.blocks_per_sec;
    let speedup_warm = warm_parallel.blocks_per_sec / cold_parallel.blocks_per_sec;

    let note_json = note.map_or(String::new(), |n| format!("\n  \"note\": \"{n}\","));
    let json = format!(
        "{{\n  \"benchmark\": \"engine_batch_throughput\",\n  \"predictors\": \"{SELECTOR}\",\n  \"uarch\": \"{uarch}\",\n  \"blocks\": {n},\n  \"rows\": {rows},\n  \"host_cpus\": {host_cpus},\n  \"threads_parallel\": {parallel_threads},{note_json}\n  \"single_thread\": {{\n    \"cold_cache_secs\": {:.6},\n    \"cold_cache_blocks_per_sec\": {:.1},\n    \"warm_cache_secs\": {:.6},\n    \"warm_cache_blocks_per_sec\": {:.1}\n  }},\n  \"parallel\": {{\n    \"cold_cache_secs\": {:.6},\n    \"cold_cache_blocks_per_sec\": {:.1},\n    \"warm_cache_secs\": {:.6},\n    \"warm_cache_blocks_per_sec\": {:.1}\n  }},\n  \"full_detail\": {{\n    \"warm_cache_secs\": {:.6},\n    \"warm_cache_blocks_per_sec\": {:.1}\n  }},\n  \"multi_uarch\": {{\n    \"uarchs\": {n_uarchs},\n    \"items\": {sweep_n},\n    \"cold_cache_secs\": {:.6},\n    \"cold_cache_blocks_per_sec\": {:.1},\n    \"warm_cache_secs\": {:.6},\n    \"warm_cache_blocks_per_sec\": {:.1},\n    \"decode_hits\": {},\n    \"decode_misses\": {},\n    \"annotate_misses\": {},\n    \"annotation_bytes\": {sweep_bytes}\n  }},\n  \"parallel_speedup_warm\": {:.3},\n  \"warm_over_cold_speedup_parallel\": {:.3},\n  \"planner\": {{ \"items\": {}, \"deduped\": {} }},\n  \"annotation_cache\": {{ \"hits\": {}, \"misses\": {}, \"decode_hits\": {}, \"decode_misses\": {}, \"entries\": {}, \"blocks\": {}, \"bytes\": {}, \"evictions\": {} }},\n  \"solver_paths\": {{ \"acyclic\": {}, \"howard\": {} }},\n  \"static_tables\": {{ \"hits\": {}, \"fallbacks\": {}, \"coverage\": {:.4} }},\n  \"annotation_passes\": [\n{}\n  ],\n  \"kernels\": [\n{}\n  ],\n  \"deterministic_across_threads\": true,\n  \"determinism_check_threads\": {check_threads}\n}}\n",
        cold_single.secs,
        cold_single.blocks_per_sec,
        warm_single.secs,
        warm_single.blocks_per_sec,
        cold_parallel.secs,
        cold_parallel.blocks_per_sec,
        warm_parallel.secs,
        warm_parallel.blocks_per_sec,
        full_warm.secs,
        full_warm.blocks_per_sec,
        sweep_cold.secs,
        sweep_cold.blocks_per_sec,
        sweep_warm.secs,
        sweep_warm.blocks_per_sec,
        sweep_stats.annotation.decode_hits,
        sweep_stats.annotation.decode_misses,
        sweep_stats.annotation.misses,
        speedup_parallel,
        speedup_warm,
        stats.planner.items,
        stats.planner.deduped,
        stats.annotation.hits,
        stats.annotation.misses,
        stats.annotation.decode_hits,
        stats.annotation.decode_misses,
        stats.annotation.entries,
        stats.annotation.blocks,
        stats.annotation.bytes,
        stats.annotation.evictions,
        solver.acyclic,
        solver.howard,
        tables.hits,
        tables.fallbacks,
        tables.coverage(),
        pass_json.join(",\n"),
        kernel_json.join(",\n"),
        rows = rows_single.len(),
        n_uarchs = Uarch::ALL.len(),
        sweep_n = sweep_items.len(),
    );
    std::fs::write(OUT_PATH, &json).expect("write BENCH_engine.json");
    println!("{json}");
    eprintln!(
        "single warm: {:.0} blocks/s; parallel warm ({} threads): {:.0} blocks/s ({speedup_parallel:.2}x); \
         full detail warm: {:.0} blocks/s; multi-uarch sweep warm: {:.0} blocks/s",
        warm_single.blocks_per_sec,
        parallel_threads,
        warm_parallel.blocks_per_sec,
        full_warm.blocks_per_sec,
        sweep_warm.blocks_per_sec
    );
    eprintln!("wrote {OUT_PATH}");
}
