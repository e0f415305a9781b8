//! `facile serve` — run the prediction daemon (`facile-server`).
//!
//! Prints one JSON line to stdout when the socket is bound and
//! accepting — `{"serving":"<address>"}` — so scripts can wait for
//! readiness (and, with `--tcp host:0`, learn the ephemeral port). The
//! daemon then parks until SIGTERM/SIGINT, drains in-flight requests,
//! and exits 0.

use facile_server::{Endpoint, Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
facile serve — prediction-as-a-service daemon

USAGE:
    facile serve --socket <PATH> [OPTIONS]
    facile serve --tcp <HOST:PORT> [OPTIONS]

ENDPOINT (exactly one):
    --socket <PATH>    listen on a Unix-domain socket
    --tcp <ADDR>       listen on TCP (port 0 = ephemeral; the bound
                       address is printed on the ready line)

OPTIONS:
    --threads <N>             engine worker threads (default: all cores)
    --predictors <KEYS>       default selector for requests that omit
                              one (default `facile`). `ext:<name>=<cmd...>`
                              tokens define and register an external tool
                              speaking the line-JSON protocol; requests
                              can then select it as `ext:<name>`
    --ext-config <FILE>       register external predictors from a TOML
                              file (see the README's External predictors
                              section)
    --queue-cap <N>           admission bound on queued + in-flight
                              batch items (default 65536); requests over
                              it are rejected with `overloaded`. Above
                              80% / 95% of it the server sheds batch /
                              all prediction work; `health` reports the
                              tier
    --cache-budget-mb <N>     total memory budget, split 55% / 30% / 15%
                              among the annotation, intern, and
                              external-result caches, each capped at its
                              share (default: unbounded)
    --conn-max-items <N>      largest single request one connection may
                              send, in items (default 0 = unlimited)
    --conn-rps <N>            per-connection prediction requests per
                              second (default 0 = unlimited)
    --breaker-threshold <N>   consecutive external-tool failures that
                              open its circuit breaker (default 5;
                              0 disables the breaker)
    --breaker-cooldown <N>    requests a tripped breaker fails fast
                              before probing the tool again (default 32;
                              doubles on consecutive trips)
    --max-batch <N>           largest engine batch one round takes from
                              the queue, in items (default 8192)
    --faults <SPEC>           arm deterministic fault injection (chaos
                              testing; also read from the FACILE_FAULTS
                              env var). Ignored with a warning unless
                              the binary was built with the
                              fault-injection feature
    --help                    show this help

The daemon serves newline-delimited JSON requests; see the protocol
section of the README. Stop it with SIGTERM or SIGINT: it stops
accepting, answers everything already admitted, and exits.
";

fn parse(args: Vec<String>) -> Result<Option<ServerConfig>, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut cfg_threads = 0usize;
    let mut predictors = String::from("facile");
    let mut queue_cap = 65_536usize;
    let mut max_batch = 8_192usize;
    let mut faults = None;
    let mut ext_config = None;
    let mut cache_budget_mb = None;
    let mut conn_max_items = 0usize;
    let mut conn_rps = 0u64;
    let mut breaker_threshold = 5u32;
    let mut breaker_cooldown = 32u64;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--socket" => endpoint = Some(Endpoint::Unix(val("--socket")?.into())),
            "--tcp" => endpoint = Some(Endpoint::Tcp(val("--tcp")?)),
            "--threads" => {
                cfg_threads = val("--threads")?
                    .parse()
                    .map_err(|_| "numeric --threads".to_string())?;
            }
            "--predictors" => predictors = val("--predictors")?,
            "--queue-cap" => {
                queue_cap = val("--queue-cap")?
                    .parse()
                    .map_err(|_| "numeric --queue-cap".to_string())?;
            }
            "--max-batch" => {
                max_batch = val("--max-batch")?
                    .parse()
                    .map_err(|_| "numeric --max-batch".to_string())?;
            }
            "--faults" => faults = Some(val("--faults")?),
            "--ext-config" => ext_config = Some(val("--ext-config")?),
            "--cache-budget-mb" => {
                let mb: usize = val("--cache-budget-mb")?
                    .parse()
                    .ok()
                    .filter(|mb| *mb > 0)
                    .ok_or_else(|| "positive numeric --cache-budget-mb".to_string())?;
                cache_budget_mb = Some(mb);
            }
            "--conn-max-items" => {
                conn_max_items = val("--conn-max-items")?
                    .parse()
                    .map_err(|_| "numeric --conn-max-items".to_string())?;
            }
            "--conn-rps" => {
                conn_rps = val("--conn-rps")?
                    .parse()
                    .map_err(|_| "numeric --conn-rps".to_string())?;
            }
            "--breaker-threshold" => {
                breaker_threshold = val("--breaker-threshold")?
                    .parse()
                    .map_err(|_| "numeric --breaker-threshold".to_string())?;
            }
            "--breaker-cooldown" => {
                breaker_cooldown = val("--breaker-cooldown")?
                    .parse()
                    .map_err(|_| "numeric --breaker-cooldown".to_string())?;
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    let endpoint = endpoint.ok_or("provide --socket <PATH> or --tcp <ADDR>")?;
    // `ext:<name>=<cmd>` tokens in the selector define external tools;
    // the server registers them at startup and the default selector
    // keeps only their bare `ext:<name>` keys.
    let (mut external, predictors) = facile_engine::extract_selector_externals(&predictors)?;
    if let Some(path) = &ext_config {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        external.extend(
            facile_engine::external::parse_config(&text).map_err(|e| format!("{path}: {e}"))?,
        );
    }
    let mut cfg = ServerConfig::new(endpoint);
    cfg.external = external;
    cfg.threads = cfg_threads;
    cfg.predictors = predictors;
    cfg.queue_cap = queue_cap;
    cfg.max_batch_items = max_batch;
    cfg.faults = faults;
    cfg.cache_budget = cache_budget_mb.map(facile_engine::CacheBudget::from_total_mb);
    cfg.conn_max_items = conn_max_items;
    cfg.conn_rps = conn_rps;
    cfg.breaker = (breaker_threshold > 0).then_some(facile_engine::BreakerSpec {
        threshold: breaker_threshold,
        cooldown: breaker_cooldown,
    });
    Ok(Some(cfg))
}

pub fn main(args: Vec<String>) -> ExitCode {
    let mut cfg = match parse(args) {
        Ok(Some(cfg)) => cfg,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg.faults.is_none() {
        if let Ok(spec) = std::env::var("FACILE_FAULTS") {
            if !spec.is_empty() {
                cfg.faults = Some(spec);
            }
        }
    }
    if let Some(spec) = &cfg.faults {
        if facile_server::faults::compiled() {
            // Injected panics are expected events; keep the default
            // panic hook's backtrace noise off stderr for them.
            facile_server::faults::install_quiet_panic_hook();
            eprintln!("fault injection armed: {spec}");
        } else {
            eprintln!(
                "warning: fault injection not compiled in \
                 (build with --features fault-injection); ignoring {spec:?}"
            );
        }
    }
    facile_server::sig::install();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{{\"serving\":\"{}\"}}", server.bound());
    let _ = std::io::stdout().flush();
    server.run_until_signal();
    ExitCode::SUCCESS
}
