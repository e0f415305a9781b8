//! A deterministic external-tool fixture speaking the
//! `facile-engine` external-predictor wire protocol on stdin/stdout.
//!
//! Shared by the adapter unit tests, the protocol goldens, the chaos
//! suite, and the `diff-generalize-smoke` CI job. Modes:
//!
//! * `echo-facile` — answer with the in-process Facile model's
//!   prediction: an external tool that happens to agree with the
//!   builtin bit-for-bit.
//! * `constant-offset` — Facile's prediction plus `--offset` cycles: a
//!   tool that disagrees with every builtin on every block, guaranteeing
//!   diff findings.
//! * `crash-after=N` — behave like `echo-facile` for N predict replies,
//!   then exit(3) without replying.
//! * `hang` — answer the version handshake, then never reply to predict
//!   requests (exercises the per-request timeout).
//! * `garbage-json` — reply with a line that is not a protocol object.
//!
//! The version handshake is answered in **every** mode (including
//! `hang` and `garbage-json`): the failure modes under test are
//! per-request, and a tool that cannot even hand-shake would be
//! indistinguishable from a spawn failure.

use facile_core::{Facile, Mode};
use facile_isa::AnnotatedBlock;
use facile_uarch::Uarch;
use facile_util::json::{self, Value};
use facile_x86::Block;
use std::io::{BufRead, Write};
use std::str::FromStr;

enum MockMode {
    EchoFacile,
    ConstantOffset,
    CrashAfter(u64),
    Hang,
    GarbageJson,
}

fn usage() -> ! {
    eprintln!(
        "usage: mock_predictor --mode <echo-facile|constant-offset|crash-after=N|hang|garbage-json> \
         [--offset X] [--version-tag S] [--record FILE]"
    );
    std::process::exit(2);
}

fn main() {
    let mut mode: Option<MockMode> = None;
    let mut offset = 3.0f64;
    let mut version_tag = "mock-1".to_string();
    let mut record: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => {
                let m = args.next().unwrap_or_else(|| usage());
                mode = Some(match m.as_str() {
                    "echo-facile" => MockMode::EchoFacile,
                    "constant-offset" => MockMode::ConstantOffset,
                    "hang" => MockMode::Hang,
                    "garbage-json" => MockMode::GarbageJson,
                    other => match other.strip_prefix("crash-after=") {
                        Some(n) => MockMode::CrashAfter(n.parse().unwrap_or_else(|_| usage())),
                        None => usage(),
                    },
                });
            }
            "--offset" => {
                offset = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--version-tag" => version_tag = args.next().unwrap_or_else(|| usage()),
            "--record" => record = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    let mode = mode.unwrap_or_else(|| usage());

    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut recorder = record.map(|path| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .expect("open --record file")
    });
    let mut predicts_answered = 0u64;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        if let Some(rec) = &mut recorder {
            writeln!(rec, "{line}").expect("record request");
        }
        let request = json::parse(&line).ok();
        let field = |key| request.as_ref().and_then(|r| r.get(key));
        // The id is echoed verbatim, as the request spelled it.
        let id = field("id").map_or("", |v| v.raw(&line));
        match field("op").and_then(Value::as_str) {
            Some("version") => {
                writeln!(out, "{{\"id\":{id},\"version\":\"{version_tag}\"}}").unwrap();
                out.flush().unwrap();
            }
            Some("predict") => {
                match mode {
                    MockMode::Hang => continue,
                    MockMode::GarbageJson => {
                        writeln!(out, "this is not json {{").unwrap();
                        out.flush().unwrap();
                        continue;
                    }
                    MockMode::CrashAfter(n) if predicts_answered >= n => {
                        std::process::exit(3);
                    }
                    _ => {}
                }
                let reply = predict_reply(request.as_ref(), &mode, offset);
                writeln!(out, "{{\"id\":{id},{reply}}}").unwrap();
                out.flush().unwrap();
                predicts_answered += 1;
            }
            _ => {
                writeln!(out, "{{\"id\":{id},\"error\":\"unknown op\"}}").unwrap();
                out.flush().unwrap();
            }
        }
    }
}

/// The reply payload (without the id) for one predict request.
fn predict_reply(request: Option<&Value>, mode: &MockMode, offset: f64) -> String {
    let parsed = (|| {
        let field = |key| request?.get(key)?.as_str();
        let uarch = Uarch::from_str(field("uarch")?).ok()?;
        let notion = match field("mode")? {
            "tpu" => Mode::Unrolled,
            "tpl" => Mode::Loop,
            _ => return None,
        };
        let block = Block::from_hex(field("block")?).ok()?;
        Some((block, uarch, notion))
    })();
    let Some((block, uarch, notion)) = parsed else {
        return "\"error\":\"cannot parse request\"".to_string();
    };
    if block.is_empty() {
        return "\"error\":\"empty block\"".to_string();
    }
    let tp = Facile::new()
        .predict(&AnnotatedBlock::new(block, uarch), notion)
        .throughput;
    let tp = match mode {
        MockMode::ConstantOffset => tp + offset,
        _ => tp,
    };
    format!("\"throughput\":{tp}")
}
