//! The repository's benchmark: what callers of `facile` see, end to end,
//! and a traced replay that splits it by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli_batch --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds the release
//! `facile` binary from source, generates the workload's inputs from
//! `facile_bhive::BlockStream(seed)`, drives the binary for `--seconds`,
//! checks every output row against the naive reference path, and prints
//! one JSON result as its last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the traced replay instead and reports the
//! per-layer metrics (see `layers.json` for which end-to-end metric each
//! should move). Inputs, outputs and spans go to
//! `$CARGO_TARGET_DIR/perfbench` (default `target/perfbench`).

mod awake;
mod inputs;
mod openloop;
mod procs;
mod stats;
mod trace;
mod workloads;

use inputs::Inputs;
use std::process::ExitCode;
use workloads::{Metric, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload cli_batch|cli_explain|serve_stream|serve_predict \
     --seed <N> --seconds <S> --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&val).ok_or_else(|| format!("unknown workload: {val}"))?);
            }
            "--seed" => seed = Some(val.parse().map_err(|_| "numeric --seed")?),
            "--seconds" => {
                seconds = Some(
                    val.parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("positive --seconds")?,
                );
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag: {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(metrics: &[Metric], attempted: u64, failed: u64) -> Result<String, String> {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        if i > 0 {
            m.push(',');
        }
        m.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{m}}}}}",
        failed == 0 && attempted > 0
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let bin = procs::build_facile()?;
    let dir = procs::out_dir()?;
    let w = args.workload;
    let inputs = Inputs::generate(
        args.seed,
        w.blocks(),
        &w.spec(),
        facile_engine::host_threads(),
    );
    let report = if args.trace {
        trace::run(&bin, w, &inputs, args.seed, &dir)?
    } else {
        let input = workloads::write_input(&dir, w, &inputs)?;
        match w {
            Workload::CliBatch | Workload::CliExplain => {
                workloads::run_cli(&bin, w, &dir, &input, &inputs, args.seconds)?
            }
            Workload::ServeStream => {
                workloads::run_stream(&bin, &dir, &input, &inputs, args.seconds)?
            }
            Workload::ServePredict => {
                workloads::run_predict(&bin, &inputs, args.seed, args.seconds)?
            }
        }
    };
    println!(
        "# workload {} seed {} trace {}",
        w.name(),
        args.seed,
        u8::from(args.trace)
    );
    for n in &report.notes {
        println!("# {n}");
    }
    for (name, value, unit) in &report.metrics {
        println!("# {name} = {value:.3} {unit}");
    }
    println!("# ops {}, ops_failed {}", report.attempted, report.failed);
    println!(
        "{}",
        result_json(&report.metrics, report.attempted, report.failed)?
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(&[("setup_s", 0.0125, "s")], 10, 0).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":0.0125,"unit":"s"}}}"#
        );
        assert!(result_json(&[("setup_s", 1.0, "s")], 10, 1)
            .unwrap()
            .contains("\"correct\":false"));
        assert!(result_json(&[("x", f64::NAN, "s")], 1, 0).is_err());
    }
}
