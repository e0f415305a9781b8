//! `facile` — command-line front end for the throughput model, built on
//! the batched prediction engine (`facile-engine`).
//!
//! ```text
//! facile --hex 4801c84889c8 --uarch SKL --mode auto
//! facile --kernel imul-chain --all-uarchs
//! facile --hex 01c8 --compare
//! facile --hex 4801c8 --explain --format json
//! echo 4801c8480fafd0 | facile --batch --predictors 'facile,sim' --format json
//! facile --batch --all-uarchs --format csv --explain < blocks.csv
//! facile diff --predictors facile,sim --seed 42 --count 500 --format json
//! ```
//!
//! Batch mode reads one block per line from stdin — either bare hex or
//! BHive CSV (`hex,...`; everything after the first comma is ignored) —
//! and emits one row per `(block, uarch, predictor)` combination. Rows
//! are ordered and byte-identical regardless of `--threads`, so output
//! is diffable across runs and machines. Undecodable lines become error
//! rows; they never abort the batch.
//!
//! `--explain` upgrades rows to full explanation detail: structured
//! per-component bounds, critical-chain edges, and port loads as an
//! `explanation` JSON object (`--format json`/`csv`) or an indented
//! text summary (`--format text`).

use facile_core::{Detail, Explanation, Facile, Mode, Report};
use facile_engine::render::{self, csv_header, mode_str};
use facile_engine::{BatchItem, Engine, EngineStats, ItemResult, PredictorRegistry};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_x86::Block;
use std::io::{BufRead, Write};
use std::process::ExitCode;

mod client_cmd;
mod diff_cmd;
mod serve_cmd;

struct Options {
    hex: Option<String>,
    kernel: Option<String>,
    batch: bool,
    uarch: Uarch,
    all_uarchs: bool,
    mode: ModeArg,
    compare: bool,
    predictors: String,
    format: Format,
    explain: bool,
    threads: Option<usize>,
    stats: bool,
    ext_config: Option<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum ModeArg {
    Auto,
    Loop,
    Unroll,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Human,
    Json,
    Csv,
}

const USAGE: &str = "\
facile — fast, accurate, and interpretable basic-block throughput prediction

USAGE:
    facile --hex <BYTES> [OPTIONS]
    facile --kernel <NAME> [OPTIONS]
    facile --batch [OPTIONS] < blocks.txt
    facile diff [DIFF OPTIONS]        (see `facile diff --help`)
    facile serve [SERVE OPTIONS]      (see `facile serve --help`)
    facile client [CLIENT OPTIONS]    (see `facile client --help`)

INPUT:
    --hex <BYTES>      basic block as hex machine code (BHive format)
    --kernel <NAME>    analyze a named kernel from the built-in corpus
    --batch            read blocks from stdin, one per line (bare hex or
                       BHive CSV `hex,...`; `#` lines are comments)

OPTIONS:
    --uarch <ABBR>     microarchitecture (SNB..RKL; default SKL)
    --all-uarchs       analyze on all nine microarchitectures
    --mode <MODE>      auto | loop (TPL) | unroll (TPU); default auto:
                       loop if the block ends in a branch
    --predictors <KEYS> comma-separated registry keys or glob patterns
                       (default `facile`; e.g. `facile,sim`, `*`).
                       `ext:<name>=<cmd...>` tokens define and select an
                       external tool speaking the line-JSON protocol
                       (e.g. `facile,ext:mca=/usr/bin/my-mca --fast`)
    --ext-config <FILE> register external predictors from a TOML file
                       (see the README's External predictors section)
    --compare          shorthand for adding `sim` to --predictors
    --format <FMT>     text | json | csv (default text); json/csv are
                       machine-readable, one row per (block, uarch,
                       predictor)
    --explain          attach the full typed explanation to every row:
                       per-component bounds with evidence, critical
                       dependence chain, and port loads (an `explanation`
                       object with --format json/csv, indented text
                       otherwise); composes with --batch
    --json, --csv      deprecated aliases for --format json / --format csv
    --threads <N>      batch worker threads (default: all cores)
    --stats            report run counters after the run (batch planner
                       dedup, two-level block cache, descriptor intern
                       table, per-kernel mean/p50/p99/max timing): a
                       trailing JSON object with --format json, stderr
                       lines otherwise
    --list-predictors  list registered predictor keys
    --list-kernels     list the built-in corpus kernels
    --help             show this help
";

fn parse_args() -> Result<Option<Options>, String> {
    let mut o = Options {
        hex: None,
        kernel: None,
        batch: false,
        uarch: Uarch::Skl,
        all_uarchs: false,
        mode: ModeArg::Auto,
        compare: false,
        predictors: String::from("facile"),
        format: Format::Human,
        explain: false,
        threads: None,
        stats: false,
        ext_config: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().is_none() {
        return Err("no input given".into());
    }
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list-kernels" => {
                for k in facile_bhive::kernels() {
                    println!("{:<16} {}", k.name, k.stresses);
                }
                return Ok(None);
            }
            "--list-predictors" => {
                let registry = PredictorRegistry::with_builtins();
                for key in registry.keys() {
                    let p = registry.get(key).expect("listed key resolves");
                    let notion = p
                        .native_notion()
                        .map_or_else(|| "both".to_string(), |m| m.to_string());
                    println!("{key:<14} {:<20} native notion: {notion}", p.name());
                }
                return Ok(None);
            }
            "--hex" => o.hex = Some(val("--hex")?),
            "--kernel" => o.kernel = Some(val("--kernel")?),
            "--batch" => o.batch = true,
            "--uarch" => {
                o.uarch = val("--uarch")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--all-uarchs" => o.all_uarchs = true,
            "--mode" => {
                o.mode = match val("--mode")?.as_str() {
                    "auto" => ModeArg::Auto,
                    "loop" | "tpl" => ModeArg::Loop,
                    "unroll" | "tpu" => ModeArg::Unroll,
                    other => return Err(format!("unknown mode: {other}")),
                };
            }
            "--compare" => o.compare = true,
            "--predictors" => o.predictors = val("--predictors")?,
            "--ext-config" => o.ext_config = Some(val("--ext-config")?),
            "--format" => {
                o.format = match val("--format")?.as_str() {
                    "text" | "human" => Format::Human,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format: {other} (text|json|csv)")),
                };
            }
            "--explain" => o.explain = true,
            "--json" => {
                eprintln!("note: --json is deprecated; use --format json");
                o.format = Format::Json;
            }
            "--csv" => {
                eprintln!("note: --csv is deprecated; use --format csv");
                o.format = Format::Csv;
            }
            "--threads" => {
                o.threads = Some(
                    val("--threads")?
                        .parse()
                        .map_err(|_| "numeric --threads".to_string())?,
                );
            }
            "--stats" => o.stats = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if o.compare && !o.predictors.split(',').any(|t| t.trim() == "sim") {
        o.predictors.push_str(",sim");
    }
    Ok(Some(o))
}

fn uarch_list(o: &Options) -> Vec<Uarch> {
    if o.all_uarchs {
        Uarch::ALL.to_vec()
    } else {
        vec![o.uarch]
    }
}

fn fixed_mode(o: &Options) -> Option<Mode> {
    match o.mode {
        ModeArg::Auto => None,
        ModeArg::Loop => Some(Mode::Loop),
        ModeArg::Unroll => Some(Mode::Unrolled),
    }
}

fn detail(o: &Options) -> Detail {
    if o.explain {
        Detail::Full
    } else {
        Detail::Brief
    }
}

fn emit_row<W: Write + ?Sized>(
    out: &mut W,
    format: Format,
    explain: bool,
    r: &ItemResult,
) -> std::io::Result<()> {
    match format {
        Format::Json => writeln!(out, "{}", render::row_json(r)),
        Format::Csv => writeln!(out, "{}", render::row_csv(r, explain)),
        Format::Human => match &r.prediction {
            Ok(p) => {
                writeln!(
                    out,
                    "{:<24} {:<4} {:<3} {:<12} {:>8.2} cyc/iter{}",
                    r.block_hex,
                    r.uarch.to_string(),
                    mode_str(r.mode),
                    r.predictor,
                    p.throughput,
                    p.bottleneck
                        .map_or_else(String::new, |b| format!("  bottleneck: {b}")),
                )?;
                if let Some(e) = &p.explanation {
                    for line in e.to_text().lines() {
                        writeln!(out, "    {line}")?;
                    }
                }
                Ok(())
            }
            Err(e) => writeln!(
                out,
                "{:<24} {:<4} {:<3} {:<12} error: {e}",
                r.block_hex,
                r.uarch.to_string(),
                mode_str(r.mode),
                r.predictor,
            ),
        },
    }
}

/// Build the engine and resolve any external-predictor definitions:
/// `ext:<name>=<cmd>` tokens in `o.predictors` (rewritten in place to
/// their bare keys) and the `--ext-config` file, if given.
fn build_engine(o: &mut Options) -> Result<Engine, String> {
    let mut engine = Engine::new(PredictorRegistry::with_builtins());
    o.predictors =
        facile_engine::register_selector_externals(engine.registry_mut(), &o.predictors)?;
    if let Some(path) = &o.ext_config {
        facile_engine::load_external_config(engine.registry_mut(), path)?;
    }
    if let Some(t) = o.threads {
        engine = engine.with_threads(t);
    }
    if o.stats {
        // `--stats` reports per-kernel timing, which is only collected
        // while the opt-in accounting is on.
        Engine::set_kernel_timing(true);
    }
    Ok(engine)
}

/// Emit planner/cache counters and (when collected) per-kernel timing:
/// a trailing JSON object on stdout with JSON output, a human-readable
/// summary on stderr otherwise (CSV output stays pure). The JSON is the
/// engine's canonical [`EngineStats::to_json`] — the same object the
/// server's `stats` reply carries.
fn emit_stats<W: Write + ?Sized>(
    out: &mut W,
    format: Format,
    t: &EngineStats,
) -> std::io::Result<()> {
    match format {
        Format::Json => writeln!(out, "{{\"stats\":{}}}", t.to_json()),
        Format::Csv | Format::Human => {
            let (a, i) = (t.annotation, t.intern);
            eprintln!(
                "stats: planner {} items / {} deduped; block cache {} decode hits / {} decode \
                 misses / {} annotate hits / {} annotate misses ({} blocks, {} annotations); \
                 intern table {} hits / {} misses ({} core hits / {} core misses, {} byte \
                 entries, {} descriptors)",
                t.planner.items,
                t.planner.deduped,
                a.decode_hits,
                a.decode_misses,
                a.hits,
                a.misses,
                a.blocks,
                a.entries,
                i.hits,
                i.misses,
                i.core_hits,
                i.core_misses,
                i.byte_entries,
                i.entries
            );
            let s = t.static_tables;
            eprintln!(
                "stats: static tables {} hits / {} fallbacks ({:.1}% coverage)",
                s.hits,
                s.fallbacks,
                s.coverage() * 100.0
            );
            for (c, k) in t.kernel_rows() {
                eprintln!(
                    "stats: kernel {} mean {:.2} us / p50 {:.2} us / p99 {:.2} us / max {:.2} us \
                     over {} calls",
                    c.name(),
                    k.mean_us,
                    k.p50_us,
                    k.p99_us,
                    k.max_us,
                    k.count
                );
            }
            Ok(())
        }
    }
}

/// Batch mode: stream stdin lines through the engine.
fn run_batch(o: &mut Options) -> Result<(), String> {
    let engine = build_engine(o)?;
    let o = &*o;
    let uarchs = uarch_list(o);
    let mode = fixed_mode(o);
    let row_detail = detail(o);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if o.format == Format::Csv {
        writeln!(&mut out, "{}", csv_header(o.explain)).map_err(|e| e.to_string())?;
    }

    // Stream in chunks: bounded memory on arbitrarily large inputs, and
    // each chunk still fans out in parallel across the worker pool.
    const CHUNK: usize = 4096;
    let mut items: Vec<BatchItem> = Vec::with_capacity(CHUNK);
    let mut tally = EngineStats::default();
    let flush = |items: &mut Vec<BatchItem>,
                 out: &mut dyn Write,
                 tally: &mut EngineStats|
     -> Result<(), String> {
        if items.is_empty() {
            return Ok(());
        }
        let rows = engine
            .predict_batch(items, &o.predictors)
            .map_err(|e| e.to_string())?;
        for r in &rows {
            emit_row(out, o.format, o.explain, r).map_err(|e| e.to_string())?;
        }
        items.clear();
        // Annotations are only reused within a chunk; dropping them here
        // keeps memory bounded on arbitrarily large streams.
        tally.absorb(&engine.snapshot());
        engine.clear_cache();
        Ok(())
    };
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        // BHive CSV line shape (block = everything before the first
        // comma); hex validation stays with the engine so bad blocks
        // become error rows instead of aborting the stream.
        let Some(hex) = facile_bhive::csv::hex_field(&line) else {
            continue;
        };
        let hex = hex.to_string();
        for &u in &uarchs {
            items.push(BatchItem {
                input: facile_engine::BlockInput::Hex(hex.clone()),
                uarch: u,
                mode,
                detail: row_detail,
            });
        }
        if items.len() >= CHUNK {
            flush(&mut items, &mut out, &mut tally)?;
        }
    }
    flush(&mut items, &mut out, &mut tally)?;
    if o.stats {
        emit_stats(&mut out, o.format, &tally).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

fn load_block(o: &Options) -> Result<Block, String> {
    match (&o.hex, &o.kernel) {
        (Some(h), None) => Block::from_hex(h).map_err(|e| format!("cannot decode block: {e}")),
        (None, Some(k)) => facile_bhive::kernel(k)
            .map(|k| k.block)
            .ok_or_else(|| format!("unknown kernel: {k} (try --list-kernels)")),
        _ => Err("provide exactly one of --hex, --kernel, or --batch".into()),
    }
}

/// `--explain` extras for the single-block text report: the contended-port
/// load map and the per-instruction attribution with disassembly.
fn print_explain_details(ab: &AnnotatedBlock, e: &Explanation) {
    if let Some(p) = e.ports() {
        if !p.port_loads.is_empty() {
            print!("port loads:");
            for l in &p.port_loads {
                print!(" {}={:.2}", l.ports, l.uops);
            }
            println!();
        }
    }
    let contributors: Vec<_> = e.attributions.iter().filter(|a| !a.is_zero()).collect();
    if !contributors.is_empty() {
        println!("per-instruction attribution:");
        for a in contributors {
            let inst = &ab.block().insts()[a.inst as usize];
            let mut line = format!("  #{:<2} {:<28}", a.inst, inst.to_string());
            if a.critical_port_uops > 0.0 {
                line.push_str(&format!(" ports={:.2}", a.critical_port_uops));
            }
            if a.chain_latency > 0.0 {
                line.push_str(&format!(" chain={:.2}", a.chain_latency));
            }
            println!("{line}");
        }
    }
}

/// Single-block mode: the interpretable report (plus any extra
/// predictors), or machine-readable rows with --format json/csv.
fn run_single(o: &mut Options) -> Result<(), String> {
    let block = load_block(o)?;
    if block.is_empty() {
        return Err("empty basic block".into());
    }
    let mode = fixed_mode(o).unwrap_or(if block.ends_in_branch() {
        Mode::Loop
    } else {
        Mode::Unrolled
    });
    let engine = build_engine(o)?;
    let o = &*o;
    let uarchs = uarch_list(o);

    if o.format != Format::Human {
        let items: Vec<BatchItem> = uarchs
            .iter()
            .map(|&u| {
                BatchItem::block(block.clone(), u)
                    .with_mode(mode)
                    .with_detail(detail(o))
            })
            .collect();
        let rows = engine
            .predict_batch(&items, &o.predictors)
            .map_err(|e| e.to_string())?;
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        if o.format == Format::Csv {
            writeln!(&mut out, "{}", csv_header(o.explain)).map_err(|e| e.to_string())?;
        }
        for r in &rows {
            emit_row(&mut out, o.format, o.explain, r).map_err(|e| e.to_string())?;
        }
        if o.stats {
            emit_stats(&mut out, o.format, &engine.snapshot()).map_err(|e| e.to_string())?;
        }
        return out.flush().map_err(|e| e.to_string());
    }

    println!(
        "block ({} instructions, {} bytes):",
        block.num_insts(),
        block.byte_len()
    );
    print!("{block}");
    println!();
    let extra = engine
        .registry()
        .resolve(&o.predictors)
        .map_err(|e| e.to_string())?;
    for &uarch in &uarchs {
        let ab = engine.annotate(&block, uarch);
        let explanation = Facile::new().explain(&ab, mode);
        print!("{}", Report::new(&ab, &explanation));
        if o.explain {
            print_explain_details(&ab, &explanation);
        }
        println!();
        for p in extra.iter().filter(|p| p.key() != "facile") {
            match p.predict(&facile_engine::PredictRequest::new(&ab, mode)) {
                Ok(pred) => println!("{}: {:.2} cycles/iteration", p.name(), pred.throughput),
                Err(e) => println!("{}: error: {e}", p.name()),
            }
        }
        if !extra.is_empty() && extra.iter().any(|p| p.key() != "facile") {
            println!();
        }
    }
    if o.stats {
        emit_stats(&mut std::io::stderr(), Format::Human, &engine.snapshot())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("diff") => return diff_cmd::main(std::env::args().skip(2).collect()),
        Some("serve") => return serve_cmd::main(std::env::args().skip(2).collect()),
        Some("client") => return client_cmd::main(std::env::args().skip(2).collect()),
        _ => {}
    }
    let mut opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.batch {
        run_batch(&mut opts)
    } else {
        run_single(&mut opts)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
