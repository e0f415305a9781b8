//! Random-input tests for the three parsers that turn user text into
//! external-tool definitions: `--ext-config`'s mini-TOML
//! (`external::parse_config`), `ExternalSpec::parse`, and the `ext:`
//! tokens of a `--predictors` selector (`extract_selector_externals`).
//!
//! Inputs are seeded mutations (insert a token, delete, replace) of the
//! README's config example, the unit tests' config, configs of their
//! lines in random order (so tools repeat, sections lose `cmd` and knobs
//! come first), and their selectors. Properties:
//!
//! - no input panics;
//! - every rejection from `parse_config` names a line of the input
//!   (`line N: ...`);
//! - an accepted config or selector, written back by the writers below,
//!   parses to equal specs;
//! - `parse_config` takes linear time: a config of 8,192 sections parses
//!   in at most 24× the time of one of 1,024 (linear code gives 8×).

use facile_engine::external::{self, BreakerSpec, ExternalSpec, DEFAULT_TIMEOUT};
use facile_util::timing::{assert_ratio, Clock};
use proptest::prelude::*;

/// The README's `--ext-config` example.
const README_CONFIG: &str = "\
# ext.toml — shorthand, or a section with tuning knobs
mca = \"/usr/bin/my-mca --fast\"

[external.vendor-sim]
cmd = \"/opt/vendor/sim --json\"
timeout-ms = 30000
breaker-threshold = 3
breaker-cooldown = 64
";

/// The config of `external.rs`'s `config_parses_shorthand_and_sections`.
const UNIT_CONFIG: &str = "\
# tools
mock = \"/bin/mock --mode echo-facile\"

[external.slow]
cmd = \"/bin/slow --x\"
timeout-ms = 250

[external.flaky]
cmd = \"/bin/flaky\"
breaker-threshold = 3
breaker-cooldown = 16
";

/// Selectors from the README and the unit tests.
const SELECTORS: [&str; 2] = [
    "facile*, ext:mock=/bin/mock --mode echo-facile, sim",
    "facile,ext:mca=/usr/bin/my-mca --fast",
];

/// Pieces a mutation inserts: the grammar's punctuation and keywords,
/// whole lines that repeat a seed's tool or leave a section without
/// `cmd`, numbers at and past the integer limits, and multi-byte text.
const TOKENS: [&str; 30] = [
    "\n",
    "[",
    "]",
    "=",
    "\"",
    "#",
    " ",
    "\t",
    "\r",
    ",",
    "external.",
    "\n[external.t]\n",
    "\n[external.mock]\ncmd = \"/bin/x\"\n",
    "\n[external.slow]\ntimeout-ms = 1\n",
    "\nmca = \"/bin/m\"\n",
    "\nflaky = \"/bin/f\"\n",
    "cmd",
    "\ncmd = \"/bin/x\"\n",
    "timeout-ms",
    "breaker-threshold",
    "breaker-cooldown",
    "\nmax-restarts = 3\n",
    "ext:",
    "ext:mock=/bin/a",
    "0",
    "1",
    "4294967296",
    "18446744073709551616",
    "-",
    "µ€",
];

/// A config of the seeds' lines, picked in order by `picks`.
fn seed_lines(picks: &[u8]) -> String {
    let lines: Vec<&str> = README_CONFIG.lines().chain(UNIT_CONFIG.lines()).collect();
    picks
        .iter()
        .map(|&p| format!("{}\n", lines[usize::from(p) % lines.len()]))
        .collect()
}

/// Apply `ops` to `seed`: each `(op, at, pick)` inserts a token (half
/// the ops), deletes a character, or replaces one with a Latin-1
/// character.
fn mutate(seed: &str, ops: &[(u8, u16, u8)]) -> String {
    let mut text: Vec<char> = seed.chars().collect();
    for &(op, at, pick) in ops {
        let at = usize::from(at);
        match op % 4 {
            0 | 1 => {
                let at = at % (text.len() + 1);
                let token = TOKENS[usize::from(pick) % TOKENS.len()];
                text.splice(at..at, token.chars());
            }
            2 if !text.is_empty() => {
                text.remove(at % text.len());
            }
            _ if !text.is_empty() => {
                let at = at % text.len();
                text[at] = char::from(pick);
            }
            _ => {}
        }
    }
    text.into_iter().collect()
}

/// Write specs back as a config: one section per tool, every key set.
fn write_config(specs: &[ExternalSpec]) -> String {
    specs
        .iter()
        .map(|s| {
            format!(
                "[external.{}]\ncmd = \"{}\"\ntimeout-ms = {}\nbreaker-threshold = {}\nbreaker-cooldown = {}\n",
                s.name,
                s.cmd.join(" "),
                s.timeout.as_millis(),
                s.breaker.threshold,
                s.breaker.cooldown
            )
        })
        .collect()
}

/// Write specs back as selector definitions.
fn write_selector(specs: &[ExternalSpec]) -> String {
    let defs: Vec<String> = specs
        .iter()
        .map(|s| format!("ext:{}={}", s.name, s.cmd.join(" ")))
        .collect();
    defs.join(",")
}

/// The `N` of a `line N: ...` message.
fn line_number(err: &str) -> Option<usize> {
    err.strip_prefix("line ")?.split_once(':')?.0.parse().ok()
}

fn ops() -> impl Strategy<Value = Vec<(u8, u16, u8)>> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u8>()), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn config_rejections_name_a_line_and_acceptances_round_trip(
        seed in 0..3u8,
        picks in proptest::collection::vec(any::<u8>(), 0..16),
        ops in ops(),
    ) {
        let seed = match seed {
            0 => README_CONFIG.to_string(),
            1 => UNIT_CONFIG.to_string(),
            _ => seed_lines(&picks),
        };
        let text = mutate(&seed, &ops);
        match external::parse_config(&text) {
            Err(e) => {
                let line = line_number(&e);
                prop_assert!(
                    line.is_some_and(|n| (1..=text.lines().count()).contains(&n)),
                    "{e:?} names no line of {text:?}"
                );
            }
            Ok(specs) => {
                let written = write_config(&specs);
                prop_assert_eq!(
                    external::parse_config(&written).as_ref(),
                    Ok(&specs),
                    "{:?} written back as {:?}",
                    text,
                    written
                );
            }
        }
    }

    #[test]
    fn spec_parse_accepts_exactly_the_valid_definitions(
        name_ops in ops(),
        cmd_ops in ops(),
    ) {
        let name = mutate("vendor-sim.2_x", &name_ops);
        let cmdline = mutate("/opt/vendor/sim --json", &cmd_ops);
        let valid_name = !name.is_empty()
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
        let cmd: Vec<&str> = cmdline.split_whitespace().collect();
        match ExternalSpec::parse(&name, &cmdline) {
            Ok(spec) => {
                prop_assert!(valid_name && !cmd.is_empty(), "{name:?} = {cmdline:?} accepted");
                prop_assert_eq!(&spec.name, &name);
                prop_assert_eq!(&spec.cmd, &cmd);
                prop_assert_eq!(spec.timeout, DEFAULT_TIMEOUT);
                prop_assert_eq!(spec.breaker, BreakerSpec::default());
            }
            Err(e) => prop_assert!(!valid_name || cmd.is_empty(), "{name:?} = {cmdline:?}: {e}"),
        }
    }

    #[test]
    fn selector_definitions_are_rewritten_and_round_trip(
        seed in 0..SELECTORS.len(),
        ops in ops(),
    ) {
        let selector = mutate(SELECTORS[seed], &ops);
        if let Ok((specs, rewritten)) = external::extract_selector_externals(&selector) {
            let tokens: Vec<&str> = rewritten.split(',').collect();
            prop_assert_eq!(tokens.len(), selector.split(',').count(), "{:?}", selector);
            let keys: Vec<String> = specs.iter().map(ExternalSpec::key).collect();
            let defined: Vec<&str> = tokens
                .iter()
                .copied()
                .zip(selector.split(','))
                .filter(|(_, t)| t.trim().strip_prefix("ext:").is_some_and(|d| d.contains('=')))
                .map(|(key, _)| key)
                .collect();
            prop_assert_eq!(&defined, &keys, "{:?}", selector);
            let written = write_selector(&specs);
            let again = external::extract_selector_externals(&written).map(|(s, _)| s);
            prop_assert_eq!(again, Ok(specs), "{:?} written back as {:?}", selector, written);
        }
    }
}

/// `n` sections, each setting every key.
fn sections(n: usize) -> String {
    (0..n)
        .map(|i| {
            format!(
                "[external.tool-{i}]\ncmd = \"/opt/tool-{i}/run --json\"\ntimeout-ms = {i}\n\
                 breaker-threshold = 3\nbreaker-cooldown = 64\n\n"
            )
        })
        .collect()
}

#[test]
fn config_parses_in_linear_time() {
    let (small, large) = (sections(1024), sections(8192));
    assert_ratio(
        Clock::Thread,
        "parse_config: 8,192 sections vs 1,024",
        24.0,
        (8, |_| {
            assert_eq!(external::parse_config(&small).unwrap().len(), 1024)
        }),
        (1, |_| {
            assert_eq!(external::parse_config(&large).unwrap().len(), 8192)
        }),
    );
}
