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
                       dedup, descriptor intern table, per-kernel
                       mean/p50/p99/max timing): a trailing JSON object
                       with --format json, stderr lines otherwise. A run
                       keeps no block cache, so its block_cache counters
                       read 0 (the server's `stats` fills them)
    --list-predictors  list registered predictor keys
    --list-kernels     list the built-in corpus kernels
    --help             show this help
";

/// Parse the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
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
    if args.is_empty() {
        return Err("no input given".into());
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
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

/// Rows are rendered into one reused buffer, which is written out each
/// time it holds this many bytes: output memory stays bounded however
/// large a chunk of rows is.
const FLUSH_BYTES: usize = 64 * 1024;

/// Render `rows` into `buf`, newline-terminated — the engine's row
/// writers for JSON and CSV, [`emit_row`] for text — and write `buf` to
/// `out` whenever it reaches [`FLUSH_BYTES`]; the caller writes what
/// remains.
fn write_rows(
    out: &mut dyn Write,
    buf: &mut String,
    o: &Options,
    rows: &[ItemResult],
) -> std::io::Result<()> {
    for r in rows {
        match o.format {
            Format::Json => {
                render::write_row_json(buf, r);
                buf.push('\n');
            }
            Format::Csv => {
                render::write_row_csv(buf, r, o.explain);
                buf.push('\n');
            }
            Format::Human => emit_row(buf, r),
        }
        if buf.len() >= FLUSH_BYTES {
            out.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    Ok(())
}

/// One row as text: a summary line, plus the indented explanation when
/// the row carries one.
fn emit_row(out: &mut String, r: &ItemResult) {
    use std::fmt::Write as _;
    match &r.prediction {
        Ok(p) => {
            let _ = writeln!(
                out,
                "{:<24} {:<4} {:<3} {:<12} {:>8.2} cyc/iter{}",
                r.block_hex,
                r.uarch.to_string(),
                mode_str(r.mode),
                r.predictor,
                p.throughput,
                p.bottleneck
                    .map_or_else(String::new, |b| format!("  bottleneck: {b}")),
            );
            if let Some(e) = &p.explanation {
                for line in e.to_text().lines() {
                    let _ = writeln!(out, "    {line}");
                }
            }
        }
        Err(e) => {
            let _ = writeln!(
                out,
                "{:<24} {:<4} {:<3} {:<12} error: {e}",
                r.block_hex,
                r.uarch.to_string(),
                mode_str(r.mode),
                r.predictor,
            );
        }
    }
}

/// Build the engine and resolve any external-predictor definitions:
/// `ext:<name>=<cmd>` tokens in `o.predictors` (rewritten in place to
/// their bare keys) and the `--ext-config` file, if given. A run sees
/// each block once, so the engine keeps no annotation cache.
fn build_engine(o: &mut Options) -> Result<Engine, String> {
    let mut engine = Engine::new(PredictorRegistry::with_builtins()).without_cache();
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
/// summary on stderr otherwise (CSV output stays pure; it leaves out the
/// block cache, which a CLI run never fills). The JSON is the engine's
/// canonical [`EngineStats::to_json`] — the same object the server's
/// `stats` reply carries.
fn emit_stats<W: Write + ?Sized>(
    out: &mut W,
    format: Format,
    t: &EngineStats,
) -> std::io::Result<()> {
    match format {
        Format::Json => writeln!(out, "{{\"stats\":{}}}", t.to_json()),
        Format::Csv | Format::Human => {
            let i = t.intern;
            eprintln!(
                "stats: planner {} items / {} deduped; intern table {} hits / {} misses ({} core \
                 hits / {} core misses, {} byte entries, {} descriptors)",
                t.planner.items,
                t.planner.deduped,
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
    let mut out = stdout.lock();
    let mut buf = String::new();
    if o.format == Format::Csv {
        buf.push_str(&csv_header(o.explain));
        buf.push('\n');
    }

    // Stream in chunks: bounded memory on arbitrarily large inputs, and
    // each chunk still fans out in parallel across the worker pool.
    const CHUNK: usize = 4096;
    let mut items: Vec<BatchItem> = Vec::with_capacity(CHUNK);
    let flush = |items: &mut Vec<BatchItem>, out: &mut dyn Write, buf: &mut String| {
        if items.is_empty() {
            return Ok(());
        }
        let rows = engine
            .predict_batch(items, &o.predictors)
            .map_err(|e| e.to_string())?;
        write_rows(out, buf, o, &rows).map_err(|e| e.to_string())?;
        items.clear();
        Ok::<(), String>(())
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
            flush(&mut items, &mut out, &mut buf)?;
        }
    }
    flush(&mut items, &mut out, &mut buf)?;
    out.write_all(buf.as_bytes()).map_err(|e| e.to_string())?;
    if o.stats {
        emit_stats(&mut out, o.format, &engine.snapshot()).map_err(|e| e.to_string())?;
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
        let mut out = stdout.lock();
        let mut buf = String::new();
        if o.format == Format::Csv {
            buf.push_str(&csv_header(o.explain));
            buf.push('\n');
        }
        write_rows(&mut out, &mut buf, o, &rows).map_err(|e| e.to_string())?;
        out.write_all(buf.as_bytes()).map_err(|e| e.to_string())?;
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => return diff_cmd::main(args[1..].to_vec()),
        Some("serve") => return serve_cmd::main(args[1..].to_vec()),
        Some("client") => return client_cmd::main(args[1..].to_vec()),
        _ => {}
    }
    let mut opts = match parse_args(&args) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Options>, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        parse_args(&args)
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--batch", "--bogus"]).err();
        assert_eq!(err.as_deref(), Some("unknown flag: --bogus"));
    }

    #[test]
    fn a_flag_missing_its_value_is_rejected() {
        let err = parse(&["--batch", "--uarch"]).err();
        assert_eq!(err.as_deref(), Some("--uarch requires a value"));
        let err = parse(&["--hex"]).err();
        assert_eq!(err.as_deref(), Some("--hex requires a value"));
    }

    #[test]
    fn threads_must_be_a_number() {
        for bad in ["many", "-1", ""] {
            let err = parse(&["--batch", "--threads", bad]).err();
            assert_eq!(err.as_deref(), Some("numeric --threads"), "{bad:?}");
        }
        let o = parse(&["--batch", "--threads", "4"]).expect("parses");
        assert_eq!(o.and_then(|o| o.threads), Some(4));
    }

    #[test]
    fn no_arguments_is_an_error() {
        assert_eq!(parse(&[]).err().as_deref(), Some("no input given"));
    }
}
