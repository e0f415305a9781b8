//! The `facile diff` subcommand: differential testing from the command
//! line.
//!
//! Runs a seeded inconsistency hunt over two or more registry predictors
//! (see `facile-diff`), printing shrunken counterexamples with both
//! predictors' numbers — and typed explanations, where available — side
//! by side. Output is deterministic: for a fixed seed/config it is
//! byte-identical across runs and `--threads` values.
//!
//! Exit codes: `0` success (findings or not), `1` runtime error (e.g. an
//! unreadable `--input` file), `2` usage error (bad flag, unknown
//! predictor key, bad threshold), `3` when `--fail-on-unclassified` is
//! set and an unclassified disagreement was reported.

use facile_diff::{run, DiffConfig, DiffError};
use facile_engine::{Engine, PredictorRegistry};
use facile_uarch::Uarch;
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
facile diff — cross-predictor inconsistency hunting with block shrinking

USAGE:
    facile diff [OPTIONS]

OPTIONS:
    --predictors <KEYS>  two or more registry keys / glob patterns
                         (default `facile,sim`). `ext:<name>=<cmd...>`
                         tokens define and select an external tool
                         speaking the line-JSON protocol
    --ext-config <FILE>  register external predictors from a TOML file
                         (see the README's External predictors section)
    --uarch <ABBR>       microarchitecture (SNB..RKL; default SKL)
    --all-uarchs         hunt on all nine microarchitectures
    --seed <N>           generator seed (default 0)
    --count <N>          generated blocks to scan (default 200)
    --threshold <X>      relative-disagreement threshold, > 0
                         (default 0.5: flag when the larger prediction
                         exceeds the smaller by 50%)
    --preset <NAME>      generation preset: balanced, numeric, scalar-int,
                         crypto, database, compiler, simd, vector-heavy,
                         memory-heavy (default balanced)
    --corpus             also scan the built-in stress-kernel corpus
    --input <FILE>       also scan blocks from a BHive CSV file
    --pivot <KEY>        only compare pairs that include this predictor
                         (e.g. --pivot facile hunts every baseline against
                         the interpretable reference, so every finding is
                         classifiable)
    --max-counterexamples <N>
                         cap on shrunk/reported findings (default 25)
    --no-shrink          report flagged blocks without delta-debugging
    --generalize         lift each finding into an abstract block
                         pattern (mnemonic group × operand shape),
                         validate it by sampling concrete instantiations,
                         and report ranked pattern clusters
    --gen-samples <N>    instantiations sampled per proposed pattern
                         widening (default 4)
    --gen-min-preserved <N>
                         samples that must preserve the disagreement for
                         a widening to be accepted (default 3)
    --format <FMT>       text | json (default text); json emits one object
                         per finding, then the disagreement matrix, then a
                         summary object
    --threads <N>        worker threads (default: all cores)
    --fail-on-unclassified
                         exit 3 if any finding cannot be classified from
                         the typed explanations
    --help               show this help
";

struct DiffOptions {
    cfg: DiffConfig,
    json: bool,
    threads: Option<usize>,
    fail_on_unclassified: bool,
    input: Option<String>,
    ext_config: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Option<DiffOptions>, String> {
    let mut o = DiffOptions {
        cfg: DiffConfig::default(),
        json: false,
        threads: None,
        fail_on_unclassified: false,
        input: None,
        ext_config: None,
    };
    let mut all_uarchs = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--predictors" => o.cfg.selector = val("--predictors")?.clone(),
            "--uarch" => {
                o.cfg.uarchs = vec![val("--uarch")?
                    .parse::<Uarch>()
                    .map_err(|e| e.to_string())?];
            }
            "--all-uarchs" => all_uarchs = true,
            "--seed" => {
                o.cfg.seed = val("--seed")?
                    .parse()
                    .map_err(|_| "numeric --seed".to_string())?;
            }
            "--count" => {
                o.cfg.count = val("--count")?
                    .parse()
                    .map_err(|_| "numeric --count".to_string())?;
            }
            "--threshold" => {
                let raw = val("--threshold")?;
                let t: f64 = raw
                    .parse()
                    .map_err(|_| format!("numeric --threshold, got {raw:?}"))?;
                if !t.is_finite() || t <= 0.0 {
                    return Err(format!(
                        "--threshold must be a positive finite number, got {raw}"
                    ));
                }
                o.cfg.threshold = t;
            }
            "--preset" => {
                let name = val("--preset")?;
                o.cfg.preset = facile_bhive::Preset::by_name(name).ok_or_else(|| {
                    format!(
                        "unknown preset: {name} (available: {})",
                        facile_bhive::Preset::ALL
                            .iter()
                            .map(|p| p.name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?;
            }
            "--corpus" => o.cfg.include_corpus = true,
            "--input" => o.input = Some(val("--input")?.clone()),
            "--pivot" => o.cfg.pivot = Some(val("--pivot")?.clone()),
            "--max-counterexamples" => {
                o.cfg.max_counterexamples = val("--max-counterexamples")?
                    .parse()
                    .map_err(|_| "numeric --max-counterexamples".to_string())?;
            }
            "--no-shrink" => o.cfg.shrink = false,
            "--generalize" => o.cfg.generalize = true,
            "--gen-samples" => {
                o.cfg.gen_samples = val("--gen-samples")?
                    .parse()
                    .map_err(|_| "numeric --gen-samples".to_string())?;
            }
            "--gen-min-preserved" => {
                o.cfg.gen_min_preserved = val("--gen-min-preserved")?
                    .parse()
                    .map_err(|_| "numeric --gen-min-preserved".to_string())?;
            }
            "--ext-config" => o.ext_config = Some(val("--ext-config")?.clone()),
            "--format" => {
                o.json = match val("--format")?.as_str() {
                    "text" | "human" => false,
                    "json" => true,
                    other => return Err(format!("unknown format: {other} (text|json)")),
                };
            }
            "--threads" => {
                o.threads = Some(
                    val("--threads")?
                        .parse()
                        .map_err(|_| "numeric --threads".to_string())?,
                );
            }
            "--fail-on-unclassified" => o.fail_on_unclassified = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if all_uarchs {
        o.cfg.uarchs = Uarch::ALL.to_vec();
    }
    Ok(Some(o))
}

fn load_input(path: &str) -> Result<Vec<(String, facile_x86::Block)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let records =
        facile_bhive::csv::parse(&text).map_err(|(line, e)| format!("{path}:{line}: {e}"))?;
    Ok(records
        .into_iter()
        .enumerate()
        .map(|(i, r)| (format!("input-{i}"), r.block))
        .collect())
}

fn emit(report: &facile_diff::DiffReport, json: bool, generalize: bool) -> std::io::Result<()> {
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    if json {
        for f in &report.findings {
            writeln!(out, "{}", f.to_json())?;
        }
        // Only with --generalize, so default JSON output stays stable.
        if generalize {
            let pats: Vec<String> = report.patterns.iter().map(|p| p.to_json()).collect();
            writeln!(out, "{{\"patterns\":[{}]}}", pats.join(","))?;
        }
        let cells: Vec<String> = report.matrix.iter().map(|c| c.to_json()).collect();
        writeln!(out, "{{\"matrix\":[{}]}}", cells.join(","))?;
        writeln!(out, "{}", report.summary_json())?;
    } else {
        writeln!(
            out,
            "scanned {} blocks (seed {}), {} comparisons, {} flagged at threshold {}",
            report.scanned_blocks,
            report.seed,
            report.rows_compared,
            report.flagged,
            report.threshold,
        )?;
        for cell in &report.matrix {
            writeln!(
                out,
                "  {} {} vs {}: {}/{} flagged (rate {:.3}, max delta {:.2})",
                cell.uarch,
                cell.a,
                cell.b,
                cell.flagged,
                cell.compared,
                cell.rate(),
                cell.max_delta,
            )?;
        }
        if report.findings.is_empty() {
            writeln!(out, "no counterexamples at this threshold")?;
        }
        for (i, f) in report.findings.iter().enumerate() {
            writeln!(out, "counterexample #{i}:")?;
            for line in f.to_text().lines() {
                writeln!(out, "  {line}")?;
            }
        }
        if report.truncated > 0 {
            writeln!(
                out,
                "({} flagged disagreements beyond --max-counterexamples were not shrunk)",
                report.truncated
            )?;
        }
        if generalize {
            if report.patterns.is_empty() {
                writeln!(out, "no inconsistency patterns (nothing generalized)")?;
            } else {
                writeln!(out, "inconsistency patterns:")?;
                for (i, p) in report.patterns.iter().enumerate() {
                    writeln!(out, "  pattern #{i}:")?;
                    for line in p.to_text().lines() {
                        writeln!(out, "    {line}")?;
                    }
                }
            }
        }
    }
    out.flush()
}

/// Entry point for `facile diff` (args exclude the subcommand itself).
pub fn main(args: Vec<String>) -> ExitCode {
    let mut o = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &o.input {
        match load_input(path) {
            Ok(blocks) => o.cfg.extra_blocks = blocks,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let mut engine = Engine::new(PredictorRegistry::with_builtins());
    // `ext:<name>=<cmd>` selector tokens define external tools; the
    // selector the hunt sees carries only their bare `ext:<name>` keys.
    match facile_engine::register_selector_externals(engine.registry_mut(), &o.cfg.selector) {
        Ok(rewritten) => o.cfg.selector = rewritten,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &o.ext_config {
        if let Err(e) = facile_engine::load_external_config(engine.registry_mut(), path) {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(t) = o.threads {
        engine = engine.with_threads(t);
    }
    let report = match run(&engine, &o.cfg) {
        Ok(r) => r,
        Err(
            e @ (DiffError::Predict(_)
            | DiffError::NeedTwoPredictors { .. }
            | DiffError::PivotNotSelected { .. }),
        ) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    if let Err(e) = emit(&report, o.json, o.cfg.generalize) {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if o.fail_on_unclassified && report.has_unclassified() {
        eprintln!(
            "error: {} finding(s) could not be classified from the typed explanations",
            report
                .findings
                .iter()
                .filter(|f| !f.class.is_classified())
                .count()
        );
        return ExitCode::from(3);
    }
    ExitCode::SUCCESS
}
